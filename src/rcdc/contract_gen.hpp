#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "rcdc/contract.hpp"
#include "topology/metadata.hpp"

namespace dcv::rcdc {

/// Options controlling contract generation.
struct ContractGenOptions {
  /// Also generate (cardinality-style) contracts for regional spines. The
  /// paper's Figure 3 walkthrough checks R devices too.
  bool include_regional_spines = true;
};

/// A precompiled, immutable verification plan for one topology epoch:
/// every device's contract set, pre-ordered in check order (default
/// contracts first, then specific contracts in ascending prefix order, so
/// successive §2.5.2 walks search nearby rules). One plan is built
/// per expected-topology epoch and shared across worker threads and
/// monitoring cycles via shared_ptr; the §2.5.2 hot path consumes plans
/// instead of re-deriving contracts from metadata per device per cycle.
///
/// Immutability is the mid-cycle safety story: a cycle captures one
/// ContractPlanPtr at its start and uses only that pointer, so a concurrent
/// epoch bump can never swap contracts under a running worker.
class ContractPlan {
 public:
  ContractPlan(std::uint64_t epoch, std::vector<DeviceContracts> devices);

  /// The expected-topology epoch this plan was compiled from.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Per-device plans, indexed by dense device id; devices with no
  /// contracts carry an empty vector.
  [[nodiscard]] const std::vector<DeviceContracts>& devices() const {
    return devices_;
  }

  /// One device's contracts in check order (empty span for
  /// contract-free devices or out-of-range ids).
  [[nodiscard]] std::span<const Contract> contracts_for(
      topo::DeviceId device) const {
    if (device >= devices_.size()) return {};
    return devices_[device].contracts;
  }

  /// Total contracts across all devices.
  [[nodiscard]] std::size_t total_contracts() const {
    return total_contracts_;
  }

 private:
  std::uint64_t epoch_;
  std::vector<DeviceContracts> devices_;
  std::size_t total_contracts_ = 0;
};

using ContractPlanPtr = std::shared_ptr<const ContractPlan>;

/// The device contract generator of §2.4 and Figure 5: consumes facts from
/// the metadata service and derives, for every device, the full contract
/// set implied by its architectural role:
///
///  * ToR (§2.4.1): default contract -> its leaf neighbors; one specific
///    contract per datacenter prefix it does not itself host -> its leaf
///    neighbors.
///  * Leaf (§2.4.2): default contract -> its spine neighbors; own-cluster
///    prefixes -> the hosting ToR; other-cluster prefixes -> the spine
///    neighbors that serve the destination cluster.
///  * Spine (§2.4.3): default contract -> its regional-spine neighbors; one
///    specific contract per datacenter prefix -> its leaf neighbors in the
///    cluster hosting the prefix.
///  * Regional spine: one subset/cardinality contract per prefix -> its
///    spine neighbors serving the hosting cluster (at least one of which
///    must be present).
///
/// Contracts derive from the *expected* topology only; current link or
/// session state never influences them (§2.4: "We create contracts based on
/// expected topology, and therefore will ignore current state of the links
/// when generating contracts").
class ContractGenerator {
 public:
  explicit ContractGenerator(const topo::MetadataService& metadata,
                             ContractGenOptions options = {})
      : metadata_(&metadata), options_(options) {}

  /// Contracts of one device. Deterministic; safe to call concurrently.
  [[nodiscard]] std::vector<Contract> for_device(topo::DeviceId device) const;

  /// Contracts for the whole datacenter, device by device.
  [[nodiscard]] std::vector<DeviceContracts> generate_all() const;

  /// The precompiled plan for the metadata's current topology epoch.
  /// Thread-safe: the plan for an epoch is built once and shared by every
  /// caller until the expected topology changes, so steady-state calls are
  /// a lock + pointer copy. Callers must not mutate the topology
  /// concurrently with this call (the same rule as every metadata read);
  /// a plan already handed out stays valid and immutable regardless of
  /// later epoch bumps.
  [[nodiscard]] ContractPlanPtr plan() const;

 private:
  const topo::MetadataService* metadata_;
  ContractGenOptions options_;

  mutable std::mutex plan_mutex_;
  mutable ContractPlanPtr cached_plan_;
};

}  // namespace dcv::rcdc
