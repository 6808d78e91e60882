#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "rcdc/contract.hpp"
#include "rcdc/contract_gen.hpp"
#include "rcdc/device_step.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/validator.hpp"
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

  /// Checks each change of a sequence independently against production
  /// (a step does not see the steps before it applied), stopping at the
  /// first rejection.
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
/// cold-converge the simulator, validate the baseline and pin every
/// device's baseline FIB handle with its verdict. Each change then costs
/// O(changed rules), not O(changed devices × contracts):
///
///   checkpoint → apply → warm reconverge (worklist seeded from exactly the
///   touched devices, propagating only changed exports) → build the new
///   table of each changed device and compare it with its baseline table
///   → recheck each one that differs → restore the topology → rollback.
///
/// The compare is exact (ForwardingTable equality, which stops at the first
/// differing rule), so the baseline keeps no fingerprints. The recheck
/// (DeviceStep::recheck) merge-diffs the device's table against its
/// baseline and runs the verifier only on the contracts a changed rule
/// touches, keeping the baseline verdict of the rest. The rollback swaps
/// the simulator's undo log back (BgpSimulator::checkpoint/rollback) at
/// O(changed devices) cost instead of reconverging a second time, and puts
/// the very baseline handles back, so pinning them costs no second copy.
/// Checks are independent (no rollout semantics); a batch of K changes
/// costs K reconvergences plus K rollbacks.
///
/// Not thread-safe: one session serves one gate thread (or is externally
/// serialized — the change-gate batcher does exactly that).
class PrecheckSession {
 public:
  /// `threads` bounds the emulator's and the validation's parallelism, as
  /// in PrecheckPipeline. `metrics`, when set (it must outlive the
  /// session), receives dcv_precheck_phase_ns{phase="reconverge"|"diff"|
  /// "verify"|"rollback"} per change and
  /// dcv_precheck_contracts_rechecked_total.
  explicit PrecheckSession(const topo::Topology& production,
                           ContractGenOptions options = {},
                           unsigned threads = 0,
                           obs::MetricsRegistry* metrics = nullptr);

  PrecheckSession(const PrecheckSession&) = delete;
  PrecheckSession& operator=(const PrecheckSession&) = delete;

  /// Prechecks one change against the baseline and leaves the session at
  /// the baseline again.
  [[nodiscard]] PrecheckResult check(const NetworkChange& change);
  /// check() of each change in turn.
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
  /// Devices actually revalidated / skipped as equal to their baseline,
  /// summed over all checks (the proportionality evidence).
  [[nodiscard]] std::uint64_t devices_revalidated() const {
    return devices_revalidated_;
  }
  [[nodiscard]] std::uint64_t devices_skipped() const {
    return devices_skipped_;
  }
  /// Contracts the revalidated devices actually ran through the verifier,
  /// summed over all checks; the rest kept their baseline verdict.
  [[nodiscard]] std::uint64_t contracts_rechecked() const {
    return contracts_rechecked_;
  }

 private:
  /// The step of executor worker `worker`, created on first use.
  DeviceStep& step(unsigned worker);

  unsigned threads_;
  std::uint64_t base_epoch_ = 0;

  topo::Topology base_;      // pristine clone, rollback source
  topo::Topology emulated_;  // live working copy under the simulator
  topo::MetadataService intent_;
  ContractPlanPtr plan_;
  routing::BgpSimulator simulator_;

  VerifierFactory verifier_factory_;
  StepMetrics step_metrics_{nullptr};
  StepTally tally_;
  std::vector<std::optional<DeviceStep>> steps_;
  /// Per-worker rules of the last table programmed for a diff, handed to
  /// the next one so it reuses their next-hop storage.
  std::vector<std::vector<routing::Rule>> fib_scratch_;

  /// One device's baseline table and the violations found on it.
  struct Baseline {
    routing::FibPtr table;
    std::vector<Violation> violations;
  };

  std::size_t baseline_total_ = 0;
  /// Per-device baselines, indexed by device id: filled once by the cold
  /// pass, then only read. A changed device diverges from the baseline
  /// exactly when its new table differs from `table`.
  std::vector<Baseline> baseline_;

  std::uint64_t checks_run_ = 0;
  std::uint64_t devices_revalidated_ = 0;
  std::uint64_t devices_skipped_ = 0;
  std::uint64_t contracts_rechecked_ = 0;

  obs::Histogram* reconverge_ns_ = nullptr;
  obs::Histogram* diff_ns_ = nullptr;
  obs::Histogram* verify_ns_ = nullptr;
  obs::Histogram* rollback_ns_ = nullptr;
  obs::Counter* contracts_rechecked_total_ = nullptr;
};

}  // namespace dcv::rcdc
