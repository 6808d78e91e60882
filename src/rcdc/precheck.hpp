#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rcdc/contract.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/validator.hpp"
#include "rcdc/verdict_cache.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/metadata.hpp"
#include "topology/topology.hpp"

namespace dcv::rcdc {

/// A proposed network change: a description plus a mutation applied to an
/// emulated copy of the network. Changes model what a rollout would do —
/// ASN reassignments, link/session operations, device replacements.
struct NetworkChange {
  std::string description;
  std::function<void(topo::Topology&)> apply;
};

/// Common change constructors.
[[nodiscard]] NetworkChange reassign_asn(std::string description,
                                         topo::DeviceId device,
                                         topo::Asn asn);
[[nodiscard]] NetworkChange shut_links(std::string description,
                                       std::vector<topo::LinkId> links);

/// Outcome of pre-checking one change.
struct PrecheckResult {
  std::string description;
  bool approved = false;
  /// Non-empty when the change could not be evaluated at all (its apply
  /// threw — e.g. a plan referencing an unknown device); approved is then
  /// false and the violation counts reflect the untouched baseline.
  std::string error;
  /// Violations present on the emulated network *before* the change
  /// (pre-existing drift is not held against the change).
  std::size_t baseline_violations = 0;
  /// Violations on the emulated network *after* the change.
  std::size_t post_change_violations = 0;
  /// The violations the change itself would introduce.
  std::vector<Violation> introduced;
};

/// The §2.7 pre-check workflow (Figure 7): "To prevent a large class of
/// faulty updates from entering in the first place Azure uses a
/// high-fidelity network emulator. It runs a full stack of virtualized
/// device software, connected with virtual links using the same topology
/// as the production network. ... RCDC is then used on FIBs extracted from
/// these networks, reporting the same class of errors as on the live
/// network."
///
/// Here the emulator is the EBGP route-propagation simulator running on a
/// cloned topology: the change is applied to the clone, routing re-runs,
/// and the standard RCDC contract validation (same contracts, same
/// verifiers as live monitoring) decides whether the change may roll out.
/// A change is approved iff it introduces no violation beyond the
/// emulated baseline.
class PrecheckPipeline {
 public:
  /// `production` is cloned per check; contracts always derive from the
  /// *expected* architecture, i.e. the unmodified metadata. `threads`
  /// bounds the emulator's and the validation's parallelism; 0 picks
  /// exec::default_threads().
  explicit PrecheckPipeline(const topo::Topology& production,
                            ContractGenOptions options = {},
                            unsigned threads = 0)
      : production_(&production), options_(options), threads_(threads) {}

  [[nodiscard]] PrecheckResult check(const NetworkChange& change) const;

  /// Checks a sequence of changes as one rollout, stopping at the first
  /// rejection (later steps usually depend on earlier ones).
  [[nodiscard]] std::vector<PrecheckResult> check_rollout(
      const std::vector<NetworkChange>& changes) const;

 private:
  const topo::Topology* production_;
  ContractGenOptions options_;
  unsigned threads_ = 0;
};

/// The serving-layer counterpart of PrecheckPipeline: one persistent warm
/// emulator instead of a clone-and-cold-converge per request.
///
/// Construction pays the full cost once — clone the production topology,
/// cold-converge the simulator, validate the baseline, fingerprint every
/// device's FIB. Each check() then applies the change, *warm*-reconverges
/// (worklist seeded from exactly the touched devices), and revalidates only
/// the devices whose FIB fingerprint diverged from the baseline — the
/// serving analogue of keeping per-request work proportional to the
/// change, not the fabric. The emulated clone is rolled back after every
/// check, so checks are independent (no rollout semantics).
///
/// check_batch() amortizes further: checking K coalesced changes costs K+1
/// reconvergences (apply, K-1 composite revert+apply steps, final revert)
/// instead of 2K, because reverting change i and applying change i+1 is a
/// single warm delta. Results are per-change and identical to K
/// independent check() calls.
///
/// Not thread-safe: one session serves one gate thread (or is externally
/// serialized — the change-gate batcher does exactly that).
class PrecheckSession {
 public:
  /// `threads` bounds the emulator's and the validation's parallelism, as
  /// in PrecheckPipeline.
  explicit PrecheckSession(const topo::Topology& production,
                           ContractGenOptions options = {},
                           unsigned threads = 0);

  PrecheckSession(const PrecheckSession&) = delete;
  PrecheckSession& operator=(const PrecheckSession&) = delete;

  [[nodiscard]] PrecheckResult check(const NetworkChange& change);
  [[nodiscard]] std::vector<PrecheckResult> check_batch(
      const std::vector<NetworkChange>& changes);

  /// Epoch of the production topology this session was built from; the
  /// gate compares it against the live epoch to detect stale sessions.
  [[nodiscard]] std::uint64_t base_epoch() const { return base_epoch_; }
  /// Violations present on the untouched emulated baseline.
  [[nodiscard]] std::size_t baseline_violations() const {
    return baseline_total_;
  }
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  /// Devices actually revalidated / skipped as fingerprint-identical,
  /// summed over all checks (the proportionality evidence).
  [[nodiscard]] std::uint64_t devices_revalidated() const {
    return devices_revalidated_;
  }
  [[nodiscard]] std::uint64_t devices_skipped() const {
    return devices_skipped_;
  }

 private:
  /// Re-derives the divergence set after a reconvergence and validates it.
  /// `divergent` carries the device set differing from baseline before the
  /// step and is updated in place.
  PrecheckResult evaluate(const std::string& description,
                          std::vector<topo::DeviceId>& divergent);

  ContractGenOptions options_;
  unsigned threads_;
  std::uint64_t base_epoch_ = 0;

  topo::Topology base_;      // pristine clone, rollback source
  topo::Topology emulated_;  // live working copy under the simulator
  topo::MetadataService intent_;
  routing::BgpSimulator simulator_;
  SimulatorFibSource fibs_;
  DatacenterValidator validator_;

  std::size_t baseline_total_ = 0;
  /// Per-device baseline verdicts: filled once by the cold pass, then only
  /// read. A device diverges from the baseline exactly when its lookup
  /// misses.
  VerdictCache baseline_;

  std::uint64_t checks_run_ = 0;
  std::uint64_t devices_revalidated_ = 0;
  std::uint64_t devices_skipped_ = 0;
};

}  // namespace dcv::rcdc
