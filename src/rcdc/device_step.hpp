#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/interval.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/verdict_cache.hpp"
#include "rcdc/verifier.hpp"

namespace dcv::rcdc {

/// Creates one verifier per worker thread (verifiers are stateful during a
/// check and not shared across threads).
using VerifierFactory = std::function<std::unique_ptr<Verifier>()>;

/// Registry handles of the per-device step: one schema whichever loop
/// (batch sweep, monitoring pipeline, distributed worker) runs the step.
/// All null without a registry.
struct StepMetrics {
  explicit StepMetrics(obs::MetricsRegistry* registry);

  /// Timed by the caller around its pull (it owns any simulated latency).
  obs::Histogram* fetch_latency_ns = nullptr;
  obs::Histogram* validate_latency_ns = nullptr;
  obs::Counter* devices_fresh = nullptr;
  obs::Counter* devices_stale = nullptr;
  obs::Counter* devices_failed = nullptr;
  obs::Counter* retries_total = nullptr;
  obs::Counter* breaker_opens_total = nullptr;
  obs::Counter* violations_total = nullptr;
  /// Set by the caller at the end of a run.
  obs::Gauge* coverage = nullptr;
  obs::Histogram* fingerprint_ns = nullptr;
  obs::Counter* devices_revalidated = nullptr;
  obs::Counter* devices_skipped = nullptr;
};

/// Counts of one run (a sweep, a cycle, a shard), shared by the steps of
/// every worker thread. Replayed verdicts count as violations (and as
/// degraded ones on a degraded pull) but check no contracts.
struct StepTally {
  std::atomic<std::size_t> retries{0};
  std::atomic<std::size_t> breaker_opens{0};
  std::atomic<std::size_t> devices_failed{0};
  std::atomic<std::size_t> devices_stale{0};
  std::atomic<std::size_t> contracts_checked{0};
  std::atomic<std::size_t> violations_degraded{0};
  std::atomic<std::size_t> violations{0};
  std::atomic<std::size_t> devices_revalidated{0};
  std::atomic<std::size_t> devices_skipped{0};
  std::atomic<std::uint64_t> verify_ns{0};

  /// Copies the counts every run summary shares (ValidationSummary,
  /// PipelineStats, dist::ResultMsg) into `out`.
  template <typename Summary>
  void copy_to(Summary& out) const {
    out.retries = retries.load();
    out.breaker_opens = breaker_opens.load();
    out.devices_failed = devices_failed.load();
    out.devices_stale = devices_stale.load();
    out.contracts_checked = contracts_checked.load();
    out.violations_degraded = violations_degraded.load();
  }
};

/// The one per-device validation step. Each worker thread owns one; it
/// holds that thread's verifier. The loops that run it keep only their
/// scheduling — which device next, on which thread, fetched with what
/// latency — and hand each pull to account() and each table to check()
/// or, with a verdict cache, verify().
class DeviceStep {
 public:
  /// `tally` and `metrics` (and `cache`/`trace` when set) must outlive the
  /// step. `trace` receives the "verify" / "cached" spans.
  DeviceStep(const VerifierFactory& factory, StepTally& tally,
             const StepMetrics& metrics, VerdictCache* cache = nullptr,
             obs::TraceRing* trace = nullptr);

  /// Accounts one pull: retries, breaker trips and the device's result
  /// (fresh, stale or failed). Returns whether the pull produced a table.
  bool account(const FetchOutcome& outcome);

  /// Verifies `device`'s `table` against its `contracts` and accounts the
  /// result; `degraded` is the current pull's confidence.
  std::vector<Violation> check(topo::DeviceId device,
                               std::span<const Contract> contracts,
                               const routing::FibPtr& table, bool degraded);

  /// check() of `after` given the verdict of an earlier table: locality
  /// (§2.4–2.5) makes a contract's verdict a function of the rules whose
  /// prefix overlaps the contract's, so only the contracts a changed rule
  /// touches run through the verifier — a changed default route touches
  /// every contract — and every other contract keeps its violations from
  /// `before_violations`, what check() or recheck() returned for the
  /// earlier table against the same `contracts`. `changed` lists (in any
  /// order) every prefix whose rule differs between the two tables — added,
  /// removed, re-hopped or flipped `connected` (diff_rules() computes it) —
  /// and may list unchanged ones too, at the cost of rechecking what they
  /// touch. `contracts` come in ContractPlan's check order: default
  /// contracts first, then specific ones by ascending prefix; the touched
  /// ones are found by binary searches per changed range. The result is
  /// element for element the verifier's own output for `after`; a
  /// `before_violations` not in the verifier's order cannot be split by
  /// contract and gets a full check. Accounts the result like check(),
  /// counting only the rechecked contracts as checked.
  std::vector<Violation> recheck(topo::DeviceId device,
                                 std::span<const Contract> contracts,
                                 const std::vector<Violation>& before_violations,
                                 const routing::ForwardingTable& after,
                                 std::span<const net::Prefix> changed,
                                 bool degraded);

  /// check() through the step's cache: a table the cache already holds a
  /// verdict for replays that verdict (accounted at the current pull's
  /// confidence); any other table is rechecked against the entry's pinned
  /// table when it has one (checked in full when not) and its verdict
  /// stored. The returned list is the cache's entry — or, without a cache,
  /// this step's own buffer, valid until the next verify().
  const std::vector<Violation>& verify(topo::DeviceId device,
                                       std::span<const Contract> contracts,
                                       const routing::FibPtr& table,
                                       bool degraded);

 private:
  /// Accounts one verified device whose verify span is `verify_span`.
  void finish(obs::Span& verify_span, std::size_t contracts_checked,
              const std::vector<Violation>& violations, bool degraded);
  /// Accounts reported violations, fresh or replayed.
  void count(const std::vector<Violation>& violations, bool degraded);

  StepTally* tally_;
  const StepMetrics* metrics_;
  VerdictCache* cache_;
  obs::TraceRing* trace_;
  std::unique_ptr<Verifier> verifier_;
  std::vector<Violation> fresh_;
  // verify()'s diff and recheck() scratch, retained across devices.
  std::vector<net::Prefix> changed_;
  std::vector<net::AddressInterval> ranges_;
  std::vector<std::size_t> touched_;
  std::vector<Contract> subset_;
};

}  // namespace dcv::rcdc
