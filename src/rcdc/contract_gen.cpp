#include "rcdc/contract_gen.hpp"

#include <algorithm>
#include <ostream>

#include "net/error.hpp"

namespace dcv::rcdc {

std::string_view to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kDefaultRouteMismatch:
      return "default-route-mismatch";
    case ViolationKind::kMissingDefaultRoute:
      return "missing-default-route";
    case ViolationKind::kWrongNextHops:
      return "wrong-next-hops";
    case ViolationKind::kUnreachableRange:
      return "unreachable-range";
    case ViolationKind::kSpecificViaDefaultRoute:
      return "specific-via-default-route";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, ViolationKind kind) {
  return os << to_string(kind);
}

namespace {

using topo::Device;
using topo::DeviceId;
using topo::DeviceRole;
using topo::MetadataService;
using topo::PrefixFact;

Contract default_contract(std::vector<DeviceId> next_hops) {
  const std::size_t count = next_hops.size();
  return Contract{.kind = ContractKind::kDefault,
                  .prefix = net::Prefix::default_route(),
                  .expected_next_hops = std::move(next_hops),
                  .mode = MatchMode::kExactSet,
                  .min_next_hops = count};
}

Contract specific_contract(const net::Prefix& prefix,
                           std::vector<DeviceId> next_hops,
                           MatchMode mode = MatchMode::kExactSet,
                           std::size_t min_hops = 1) {
  return Contract{.kind = ContractKind::kSpecific,
                  .prefix = prefix,
                  .expected_next_hops = std::move(next_hops),
                  .mode = mode,
                  .min_next_hops = min_hops,
                  // Intent demands a specific route, not default fallback.
                  .allow_default_route = false};
}

/// True when the prefix is hosted in the same datacenter as the device.
/// Contracts only cover intra-datacenter forwarding intent (§2.3 postulates
/// intent "for a datacenter").
bool same_datacenter(const MetadataService& metadata, const Device& device,
                     const PrefixFact& fact) {
  return metadata.topology().device(fact.tor).datacenter == device.datacenter;
}

void tor_contracts(const MetadataService& metadata, const Device& tor,
                   std::vector<Contract>& out) {
  const auto leaves_adj =
      metadata.topology().neighbors_with_role(tor.id, DeviceRole::kLeaf);
  const std::vector<DeviceId> leaves(leaves_adj.begin(), leaves_adj.end());
  out.push_back(default_contract(leaves));
  for (const PrefixFact& fact : metadata.all_prefixes()) {
    if (fact.tor == tor.id) continue;  // "besides the prefix it announces"
    if (!same_datacenter(metadata, tor, fact)) continue;
    out.push_back(specific_contract(fact.prefix, leaves));
  }
}

void leaf_contracts(const MetadataService& metadata, const Device& leaf,
                    std::vector<Contract>& out) {
  const auto spines_adj =
      metadata.topology().neighbors_with_role(leaf.id, DeviceRole::kSpine);
  const std::vector<DeviceId> spines(spines_adj.begin(), spines_adj.end());
  out.push_back(default_contract(spines));
  for (const PrefixFact& fact : metadata.all_prefixes()) {
    if (!same_datacenter(metadata, leaf, fact)) continue;
    if (fact.cluster == leaf.cluster) {
      // Traffic for own-cluster prefixes goes straight to the hosting ToR.
      out.push_back(specific_contract(fact.prefix, {fact.tor}));
    } else {
      out.push_back(specific_contract(
          fact.prefix, metadata.leaf_uplinks_toward(leaf.id, fact.cluster)));
    }
  }
}

void spine_contracts(const MetadataService& metadata, const Device& spine,
                     std::vector<Contract>& out) {
  const auto regionals = metadata.topology().neighbors_with_role(
      spine.id, DeviceRole::kRegionalSpine);
  out.push_back(default_contract(
      std::vector<DeviceId>(regionals.begin(), regionals.end())));
  for (const PrefixFact& fact : metadata.all_prefixes()) {
    if (!same_datacenter(metadata, spine, fact)) continue;
    auto leaves = metadata.spine_downlinks_into(spine.id, fact.cluster);
    if (leaves.empty()) continue;  // this plane does not serve the cluster
    out.push_back(specific_contract(fact.prefix, std::move(leaves)));
  }
}

void regional_contracts(const MetadataService& metadata,
                        const Device& regional, std::vector<Contract>& out) {
  for (const PrefixFact& fact : metadata.all_prefixes()) {
    auto spines =
        metadata.regional_downlinks_toward(regional.id, fact.cluster);
    if (spines.empty()) continue;  // regional does not serve that cluster
    out.push_back(specific_contract(fact.prefix, std::move(spines),
                                    MatchMode::kSubsetAtLeast,
                                    /*min_hops=*/1));
  }
}

}  // namespace

std::vector<Contract> ContractGenerator::for_device(
    topo::DeviceId device) const {
  const Device& d = metadata_->topology().device(device);
  std::vector<Contract> out;
  switch (d.role) {
    case DeviceRole::kTor:
      tor_contracts(*metadata_, d, out);
      break;
    case DeviceRole::kLeaf:
      leaf_contracts(*metadata_, d, out);
      break;
    case DeviceRole::kSpine:
      spine_contracts(*metadata_, d, out);
      break;
    case DeviceRole::kRegionalSpine:
      if (options_.include_regional_spines) {
        regional_contracts(*metadata_, d, out);
      }
      break;
  }
  return out;
}

std::vector<DeviceContracts> ContractGenerator::generate_all() const {
  std::vector<DeviceContracts> out;
  out.reserve(metadata_->topology().device_count());
  for (const Device& d : metadata_->topology().devices()) {
    out.push_back(DeviceContracts{.device = d.id,
                                  .contracts = for_device(d.id)});
  }
  return out;
}

ContractPlan::ContractPlan(std::uint64_t epoch,
                           std::vector<DeviceContracts> devices)
    : epoch_(epoch), devices_(std::move(devices)) {
  for (DeviceContracts& entry : devices_) {
    // Check order: default contracts first (checked against the default
    // rule, no walk), then specific contracts in ascending prefix order so
    // successive walks search nearby rules of the sorted table.
    std::stable_sort(entry.contracts.begin(), entry.contracts.end(),
                     [](const Contract& a, const Contract& b) {
                       const bool a_default = a.kind == ContractKind::kDefault;
                       const bool b_default = b.kind == ContractKind::kDefault;
                       if (a_default != b_default) return a_default;
                       return a.prefix < b.prefix;
                     });
    total_contracts_ += entry.contracts.size();
  }
}

ContractPlanPtr ContractGenerator::plan() const {
  const std::uint64_t epoch = metadata_->epoch();
  const std::lock_guard lock(plan_mutex_);
  if (cached_plan_ == nullptr || cached_plan_->epoch() != epoch) {
    cached_plan_ = std::make_shared<const ContractPlan>(epoch,
                                                        generate_all());
  }
  return cached_plan_;
}

}  // namespace dcv::rcdc
