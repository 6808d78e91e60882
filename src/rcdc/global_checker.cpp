#include "rcdc/global_checker.hpp"

#include <functional>

#include "net/error.hpp"

namespace dcv::rcdc {

namespace {

using topo::Device;
using topo::DeviceId;
using topo::DeviceRole;
using topo::MetadataService;
using topo::PrefixFact;

/// Per-device result of the forwarding-graph traversal for one destination.
struct NodeInfo {
  bool reachable = false;
  std::uint64_t paths = 0;
  int min_length = 0;
  int max_length = 0;
  bool loop = false;
};

enum class VisitState : std::uint8_t { kUnvisited, kInProgress, kDone };

/// Traverses the *actual* forwarding graph: at each device, the
/// longest-prefix match of the destination address decides the next hops.
class ActualTraversal {
 public:
  ActualTraversal(const std::vector<routing::FibPtr>& fibs,
                  net::Ipv4Address address, DeviceId destination)
      : fibs_(&fibs),
        address_(address),
        destination_(destination),
        states_(fibs.size(), VisitState::kUnvisited),
        info_(fibs.size()) {}

  const NodeInfo& visit(DeviceId v) {
    if (states_[v] == VisitState::kDone) return info_[v];
    if (states_[v] == VisitState::kInProgress) {
      // Forwarding loop: cut the cycle and mark it.
      info_[v].loop = true;
      return info_[v];
    }
    states_[v] = VisitState::kInProgress;
    NodeInfo result;
    if (v == destination_) {
      result = NodeInfo{.reachable = true,
                        .paths = 1,
                        .min_length = 0,
                        .max_length = 0,
                        .loop = false};
    } else {
      const routing::Rule* rule = (*fibs_)[v]->lookup(address_);
      if (rule != nullptr && !rule->connected) {
        for (const DeviceId next : rule->next_hops) {
          const NodeInfo& child = visit(next);
          result.loop = result.loop || child.loop;
          if (!child.reachable) continue;
          if (result.paths == 0) {
            result.min_length = child.min_length + 1;
            result.max_length = child.max_length + 1;
          } else {
            result.min_length =
                std::min(result.min_length, child.min_length + 1);
            result.max_length =
                std::max(result.max_length, child.max_length + 1);
          }
          result.reachable = true;
          result.paths += child.paths;
        }
      }
      // No rule, a connected rule on the wrong device (misdelivery), or no
      // reachable next hop: traffic is lost here.
    }
    info_[v] = result;
    states_[v] = VisitState::kDone;
    return info_[v];
  }

 private:
  const std::vector<routing::FibPtr>* fibs_;
  net::Ipv4Address address_;
  DeviceId destination_;
  std::vector<VisitState> states_;
  std::vector<NodeInfo> info_;
};

/// Traverses the *expected* shortest-path graph implied by the architecture
/// (the same role rules that drive contract generation, §2.4.1–2.4.3),
/// yielding the maximal redundant path counts of Claim 1.
class ExpectedTraversal {
 public:
  ExpectedTraversal(const MetadataService& metadata, const PrefixFact& fact)
      : metadata_(&metadata),
        fact_(&fact),
        info_(metadata.topology().device_count()),
        done_(metadata.topology().device_count(), false) {}

  const NodeInfo& visit(DeviceId v) {
    if (done_[v]) return info_[v];
    done_[v] = true;  // the expected graph is a DAG by construction
    NodeInfo result;
    if (v == fact_->tor) {
      result = NodeInfo{.reachable = true,
                        .paths = 1,
                        .min_length = 0,
                        .max_length = 0,
                        .loop = false};
    } else {
      for (const DeviceId next : expected_hops(v)) {
        const NodeInfo& child = visit(next);
        if (!child.reachable) continue;
        if (result.paths == 0) {
          result.min_length = child.min_length + 1;
          result.max_length = child.max_length + 1;
        } else {
          result.min_length =
              std::min(result.min_length, child.min_length + 1);
          result.max_length =
              std::max(result.max_length, child.max_length + 1);
        }
        result.reachable = true;
        result.paths += child.paths;
      }
    }
    info_[v] = result;
    return info_[v];
  }

 private:
  std::vector<DeviceId> expected_hops(DeviceId v) const {
    const topo::Topology& topology = metadata_->topology();
    const Device& device = topology.device(v);
    const Device& host = topology.device(fact_->tor);
    if (device.datacenter != host.datacenter) return {};
    switch (device.role) {
      case DeviceRole::kTor: {
        const auto leaves = topology.neighbors_with_role(v, DeviceRole::kLeaf);
        return {leaves.begin(), leaves.end()};
      }
      case DeviceRole::kLeaf:
        if (device.cluster == fact_->cluster) return {fact_->tor};
        return metadata_->leaf_uplinks_toward(v, fact_->cluster);
      case DeviceRole::kSpine:
        return metadata_->spine_downlinks_into(v, fact_->cluster);
      case DeviceRole::kRegionalSpine:
        return {};  // regionals are not on intra-datacenter shortest paths
    }
    return {};
  }

  const MetadataService* metadata_;
  const PrefixFact* fact_;
  std::vector<NodeInfo> info_;
  std::vector<bool> done_;
};

}  // namespace

GlobalCheckResult GlobalChecker::check_all_pairs(
    std::size_t max_failures) const {
  GlobalCheckResult result;
  const topo::Topology& topology = metadata_->topology();

  // Step 1 of the straightforward approach (§2.4): "obtain a stable
  // snapshot of the routing tables from all the devices and form the
  // composite routing table for the entire network."
  const auto snapshot_start = std::chrono::steady_clock::now();
  std::vector<routing::FibPtr> fibs;
  fibs.reserve(topology.device_count());
  for (const Device& d : topology.devices()) {
    fibs.push_back(fibs_->fetch(d.id));
  }
  result.snapshot_time = std::chrono::steady_clock::now() - snapshot_start;

  // Step 2: validate the intent against the composite table, per
  // destination prefix.
  const auto analysis_start = std::chrono::steady_clock::now();
  const auto tors = topology.devices_with_role(DeviceRole::kTor);
  for (const PrefixFact& fact : metadata_->all_prefixes()) {
    const Device& host = topology.device(fact.tor);
    ActualTraversal actual(fibs, fact.prefix.first(), fact.tor);
    ExpectedTraversal expected(*metadata_, fact);
    for (const DeviceId source : tors) {
      if (source == fact.tor) continue;
      const Device& src = topology.device(source);
      if (src.datacenter != host.datacenter) continue;

      const NodeInfo& a = actual.visit(source);
      const NodeInfo& e = expected.visit(source);
      const int intended_length = src.cluster == fact.cluster ? 2 : 4;

      PairOutcome outcome{.source = source,
                          .destination = fact.prefix,
                          .reachable = a.reachable,
                          .shortest = a.reachable &&
                                      a.min_length == intended_length &&
                                      a.max_length == intended_length,
                          .fully_redundant = false,
                          .path_count = a.paths,
                          .expected_path_count = e.paths,
                          .min_length = a.min_length,
                          .max_length = a.max_length,
                          .loop = a.loop};
      outcome.fully_redundant =
          outcome.shortest && outcome.path_count == outcome.expected_path_count;

      ++result.pairs_checked;
      if (outcome.reachable) ++result.pairs_reachable;
      if (outcome.shortest) ++result.pairs_shortest;
      if (outcome.fully_redundant) ++result.pairs_fully_redundant;
      if (outcome.loop) ++result.pairs_with_loops;
      result.total_paths += outcome.path_count;
      result.max_paths_per_pair =
          std::max(result.max_paths_per_pair, outcome.path_count);

      if (!outcome.fully_redundant &&
          result.failures.size() < max_failures) {
        std::string why;
        if (outcome.loop) {
          why = "forwarding loop";
        } else if (!outcome.reachable) {
          why = "unreachable";
        } else if (!outcome.shortest) {
          why = "path length " + std::to_string(outcome.min_length) + ".." +
                std::to_string(outcome.max_length) + " (intended " +
                std::to_string(intended_length) + ")";
        } else {
          why = "only " + std::to_string(outcome.path_count) + " of " +
                std::to_string(outcome.expected_path_count) +
                " redundant paths";
        }
        result.failures.push_back(topology.device(source).name + " -> " +
                                  fact.prefix.to_string() + ": " + why);
      }
    }
  }
  result.analysis_time = std::chrono::steady_clock::now() - analysis_start;
  return result;
}

}  // namespace dcv::rcdc
