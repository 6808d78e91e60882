#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "rcdc/severity.hpp"
#include "rcdc/validator.hpp"
#include "rcdc/verdict_cache.hpp"

namespace dcv::rcdc {

/// Configuration of the RCDC monitoring service instance (§2.6.1).
struct PipelineConfig {
  unsigned puller_workers = 4;
  unsigned validator_workers = 4;
  /// Simulated per-device routing-table fetch latency; the paper reports
  /// 200–800 ms per table.
  std::chrono::microseconds fetch_latency_min{200'000};
  std::chrono::microseconds fetch_latency_max{800'000};
  /// Scale factor applied to simulated latencies so tests and benchmarks
  /// can run the full pipeline without waiting wall-clock production times.
  double time_scale = 1.0;
  std::uint64_t seed = 0;
  /// Capacity of the puller→validator notification queue (the cloud-queue
  /// stand-in), counted in notifications (one per pulled table) even though
  /// the stages hand them over in batches. Pullers block when the queue is
  /// full — backpressure instead of unbounded table buffering. Clamped to
  /// ≥ 1.
  std::size_t queue_capacity = 256;
  /// Incremental validation (on by default): a device whose fetched handle
  /// is the very table object last validated, or else whose fingerprint
  /// (order-insensitive semantic hash) is unchanged, reuses the cached
  /// violation list instead of re-verifying. Tables are still pulled every
  /// cycle (that is how change is observed), but steady-state fingerprint
  /// and verification work drop to the changed set. The cache is dropped
  /// whenever the expected-topology epoch (and so the contract plan)
  /// changes. Replayed violations flow through the same risk/alert path as
  /// fresh ones, with the current pull's degraded flag.
  bool incremental = true;
  /// Optional metrics sink (must outlive the pipeline). When set, every
  /// cycle records the per-device step's series (StepMetrics: the
  /// dcv_pipeline_* fetch/validate latency, device, retry, breaker,
  /// violation and coverage series and the dcv_incremental_* fingerprint
  /// and revalidated/skipped series) plus the pipeline's own queue
  /// depth/wait, simulated-fetch, cycle and revalidation-ratio series.
  /// When null no metric is recorded; the cycle's PipelineStats are
  /// counted either way.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional span sink (must outlive the pipeline). When set, every cycle
  /// records a causal span tree: a root "cycle" span (with "contracts" as
  /// its child) on the calling thread, and per-device "fetch" spans plus
  /// "validate" → {"verify", "report"} trees on the worker threads, all
  /// carrying the cycle's correlation id. Null disables span recording.
  obs::TraceRing* trace = nullptr;
};

/// Aggregate statistics of one monitoring cycle.
struct PipelineStats {
  std::size_t devices = 0;
  std::size_t contracts_checked = 0;
  std::size_t violations = 0;
  std::size_t alerts_high = 0;
  std::size_t alerts_low = 0;
  /// Violations found on degraded tables (stale fallback or truncated/
  /// corrupted pulls); their alerts carry degraded_confidence.
  std::size_t violations_degraded = 0;
  /// Devices that yielded no table this cycle (retries exhausted with no
  /// stale fallback, or skipped by an open circuit breaker).
  std::size_t devices_failed = 0;
  /// Devices validated against a stale cached table rather than a fresh
  /// pull.
  std::size_t devices_stale = 0;
  /// Devices actually re-verified this cycle (fingerprint changed, first
  /// seen, or incremental mode off).
  std::size_t devices_revalidated = 0;
  /// Devices whose cached verdicts were replayed because their table was
  /// unchanged (always 0 with incremental mode off).
  std::size_t devices_skipped = 0;
  /// Extra pull attempts beyond the first, summed over all devices.
  std::size_t retries = 0;
  /// Circuit-breaker closed→open (or half-open→open) transitions observed
  /// during the cycle.
  std::size_t breaker_opens = 0;
  /// Cycle wall time, measured on the real (scaled) clock.
  std::chrono::nanoseconds wall{0};
  /// Sum of *simulated* (production-magnitude, pre-scale) fetch latencies
  /// over fetched devices. Reports what the paper's 200–800 ms pulls would
  /// have cost; NOT comparable to `wall` unless time_scale == 1.
  std::chrono::nanoseconds fetch_sim_total{0};
  /// Sum of *scaled* fetch latencies actually slept (simulated × time_scale)
  /// over fetched devices — same clock as `wall`, so utilization-style
  /// ratios against wall time must use this total, never fetch_sim_total.
  std::chrono::nanoseconds fetch_scaled_total{0};
  /// Sum of real contract-validation times across devices.
  std::chrono::nanoseconds validate_total{0};

  /// Fraction of devices that produced a table this cycle (fresh or stale).
  [[nodiscard]] double coverage() const {
    return devices == 0 ? 1.0
                        : static_cast<double>(devices - devices_failed) /
                              static_cast<double>(devices);
  }
  /// Mean simulated (pre-scale) fetch latency over devices actually fetched.
  [[nodiscard]] std::chrono::nanoseconds fetch_sim_mean() const {
    const auto fetched = static_cast<std::int64_t>(devices - devices_failed);
    return fetched == 0 ? std::chrono::nanoseconds{0}
                        : fetch_sim_total / fetched;
  }
  /// Mean scaled fetch latency (same clock as `wall`) over fetched devices.
  [[nodiscard]] std::chrono::nanoseconds fetch_scaled_mean() const {
    const auto fetched = static_cast<std::int64_t>(devices - devices_failed);
    return fetched == 0 ? std::chrono::nanoseconds{0}
                        : fetch_scaled_total / fetched;
  }
  /// Mean contract-validation time over devices actually validated.
  [[nodiscard]] std::chrono::nanoseconds validate_mean() const {
    const auto fetched = static_cast<std::int64_t>(devices - devices_failed);
    return fetched == 0 ? std::chrono::nanoseconds{0}
                        : validate_total / fetched;
  }
};

/// Point-in-time view of the pipeline for the telemetry plane: everything
/// a readiness probe needs, readable from any thread while cycles run.
struct PipelineHealth {
  std::uint64_t cycles_completed = 0;
  bool cycle_in_progress = false;
  /// Coverage of the last *completed* cycle (1.0 before the first one).
  double coverage = 1.0;
  /// Live notification-queue depth (sampled after each batch a puller
  /// pushes or a validator pops) and its bound; depth ≤ capacity.
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t breaker_opens_last_cycle = 0;
  std::size_t devices_failed_last_cycle = 0;
  /// Time since the last completed cycle finished; negative before the
  /// first cycle completes.
  std::chrono::nanoseconds since_last_cycle{-1};
};

/// Thresholds that turn PipelineHealth into a readiness verdict. The
/// defaults encode "serve only while monitoring is trustworthy": at least
/// one cycle done, ≥90% of devices produced a table, no breaker opened
/// last cycle, queue below saturation, and (when enabled) the last cycle
/// finished recently enough that verdicts are not stale.
struct ReadinessRules {
  double min_coverage = 0.9;
  std::size_t max_breaker_opens = 0;
  /// queue_depth / queue_capacity above this fraction counts as saturated.
  double max_queue_saturation = 0.9;
  /// 0 disables the staleness rule (useful for one-shot runs).
  std::chrono::nanoseconds max_cycle_age{0};
};

/// The three-microservice monitoring pipeline of Figure 5, realized
/// in-process: a device contract generator feeds a contract store; puller
/// workers fetch routing tables (with simulated production latencies) and
/// post notifications to a queue; validator workers consume notifications,
/// join table + contracts, verify, classify risk, and emit alerts.
///
/// "RCDC is designed for horizontal scalability. ... Each service instance
/// is configured to monitor O(10K) devices. Fetching each routing table
/// takes 200-800ms, and validating takes O(100) milliseconds."
class MonitoringPipeline {
 public:
  /// Called for every violation, with its risk assessment, from validator
  /// worker threads (serialized internally).
  using AlertSink =
      std::function<void(const Violation&, const RiskAssessment&)>;

  MonitoringPipeline(const topo::MetadataService& metadata,
                     const FibSource& fibs, VerifierFactory verifier_factory,
                     PipelineConfig config = {});

  void set_alert_sink(AlertSink sink) { alert_sink_ = std::move(sink); }

  /// Runs one full monitoring cycle over every device ("The frequency of
  /// validation is configurable" — the caller owns the schedule).
  ///
  /// The cycle always completes: fetch failures reduce coverage (counted in
  /// devices_failed) instead of aborting the cycle, stale-cache fallbacks
  /// are validated at degraded confidence, and breaker-skipped devices are
  /// reported, never waited on.
  [[nodiscard]] PipelineStats run_cycle();

  /// Live state snapshot for the telemetry plane; safe to call from any
  /// thread, including while run_cycle() is executing on another.
  [[nodiscard]] PipelineHealth health() const;

 private:
  const topo::MetadataService* metadata_;
  const FibSource* fibs_;
  VerifierFactory verifier_factory_;
  PipelineConfig config_;
  AlertSink alert_sink_;
  /// Owns the epoch-keyed contract-plan cache: each cycle captures one
  /// immutable plan pointer instead of regenerating every device's
  /// contracts (stage 1 becomes a pointer copy in steady state).
  ContractGenerator generator_;

  // Incremental-validation state, keyed to the plan epoch (each device is
  // touched by exactly one validator worker per cycle; cross-cycle
  // visibility comes from the worker joins).
  VerdictCache verdicts_;

  // Telemetry-plane state, updated by run_cycle and read by health().
  std::atomic<std::uint64_t> cycles_completed_{0};
  std::atomic<bool> cycle_in_progress_{false};
  std::atomic<double> last_coverage_{1.0};
  std::atomic<std::size_t> live_queue_depth_{0};
  std::atomic<std::size_t> last_breaker_opens_{0};
  std::atomic<std::size_t> last_devices_failed_{0};
  /// steady_clock::time_since_epoch() of the last cycle's end; -1 = none.
  std::atomic<std::int64_t> last_cycle_end_ns_{-1};
};

/// Builds a /readyz probe over the pipeline's live state: not-ready when no
/// cycle has completed yet, coverage is below rules.min_coverage, circuit
/// breakers opened last cycle beyond rules.max_breaker_opens, the
/// notification queue is saturated, or the last cycle is older than
/// rules.max_cycle_age. The detail text names every violated rule. The
/// pipeline must outlive the probe.
[[nodiscard]] obs::HealthProbe make_pipeline_probe(
    const MonitoringPipeline& pipeline, ReadinessRules rules = {});

}  // namespace dcv::rcdc
