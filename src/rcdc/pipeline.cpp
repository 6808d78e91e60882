#include "rcdc/pipeline.hpp"

#include <atomic>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

#include "exec/executor.hpp"
#include "obs/span.hpp"
#include "rcdc/notification_queue.hpp"

namespace dcv::rcdc {

namespace {

/// Cycle correlation ids are process-unique (not per-pipeline), so several
/// pipelines sharing one trace ring never alias each other's cycles.
std::atomic<std::uint64_t> g_next_cycle_id{1};

/// Notifications a puller holds before handing them over, and the most a
/// validator takes at once: one queue lock and one wake-up per batch instead
/// of per device. Much larger batches stop the two stages overlapping.
constexpr std::size_t kHandoffBatch = 32;

/// Sets a flag for its own lifetime: cleared on every exit, a throw
/// included.
class FlagScope {
 public:
  explicit FlagScope(std::atomic<bool>& flag) : flag_(&flag) {
    flag.store(true, std::memory_order_relaxed);
  }
  ~FlagScope() { flag_->store(false, std::memory_order_relaxed); }
  FlagScope(const FlagScope&) = delete;
  FlagScope& operator=(const FlagScope&) = delete;

 private:
  std::atomic<bool>* flag_;
};

struct Notification {
  topo::DeviceId device = topo::kInvalidDevice;
  /// A pull that produced a table; a degraded one (stale fallback or
  /// truncated/corrupted pull) has its violations reported at degraded
  /// confidence.
  FetchOutcome pull;
  /// When the puller pulled this table (for queue-wait metrics; left unset
  /// when that metric is off).
  std::chrono::steady_clock::time_point enqueued_at{};
};

/// The pipeline's own per-cycle registry handles (the per-device step's
/// live in StepMetrics); all null when metrics are off, so the hot paths
/// pay one branch per record and nothing else.
struct CycleMetrics {
  obs::Histogram* fetch_sim_ns = nullptr;
  obs::Histogram* queue_wait_ns = nullptr;
  obs::Histogram* queue_push_block_ns = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Counter* cycles_total = nullptr;
  obs::Gauge* revalidation_ratio = nullptr;

  explicit CycleMetrics(obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    fetch_sim_ns = &registry->histogram(
        "dcv_pipeline_fetch_sim_ns",
        "Per-device simulated (production-magnitude) fetch latency");
    queue_wait_ns = &registry->histogram(
        "dcv_pipeline_queue_wait_ns",
        "Time from a table's pull to its notification's pop, including "
        "the time spent in the puller's batch");
    queue_push_block_ns = &registry->histogram(
        "dcv_pipeline_queue_push_block_ns",
        "Time a puller spent pushing one batch of notifications, blocked "
        "on a full queue included");
    queue_depth = &registry->gauge(
        "dcv_pipeline_queue_depth",
        "Notification queue depth, sampled after each batch a puller pushes");
    cycles_total = &registry->counter("dcv_pipeline_cycles_total",
                                      "Monitoring cycles completed");
    revalidation_ratio = &registry->gauge(
        "dcv_incremental_revalidation_ratio",
        "Fraction of validated devices re-verified in the latest cycle");
  }
};

}  // namespace

MonitoringPipeline::MonitoringPipeline(const topo::MetadataService& metadata,
                                       const FibSource& fibs,
                                       VerifierFactory verifier_factory,
                                       PipelineConfig config)
    : metadata_(&metadata),
      fibs_(&fibs),
      verifier_factory_(std::move(verifier_factory)),
      config_(config),
      generator_(metadata) {}

PipelineStats MonitoringPipeline::run_cycle() {
  const auto start = std::chrono::steady_clock::now();
  PipelineStats stats;
  CycleMetrics metrics(config_.metrics);
  const std::uint64_t cycle_id =
      g_next_cycle_id.fetch_add(1, std::memory_order_relaxed);
  const FlagScope in_progress(cycle_in_progress_);
  const obs::CycleScope cycle_scope(cycle_id);
  obs::Span cycle_span("cycle", nullptr, config_.trace);

  // Stage 1 — device contract generator: capture this cycle's immutable
  // contract plan. In steady state the plan is cached for the current
  // topology epoch, so this is a lock + pointer copy rather than a full
  // regeneration; a concurrent epoch bump can only affect the *next*
  // cycle's plan, never the one captured here.
  obs::Span contracts_span("contracts", nullptr, config_.trace);
  const ContractPlanPtr plan = generator_.plan();
  // A new epoch means contracts may have changed for any device: the
  // cache drops every verdict.
  VerdictCache* cache = nullptr;
  if (config_.incremental) {
    verdicts_.set_epoch(plan->epoch(), metadata_->topology().device_count());
    cache = &verdicts_;
  }
  std::vector<topo::DeviceId> devices;
  for (const DeviceContracts& entry : plan->devices()) {
    if (!entry.contracts.empty()) devices.push_back(entry.device);
  }
  contracts_span.stop();
  stats.devices = devices.size();

  const StepMetrics step_metrics(config_.metrics);
  StepTally tally;
  const unsigned validators = std::max(1u, config_.validator_workers);
  const unsigned pullers = std::max(1u, config_.puller_workers);
  NotificationQueue<Notification> queue(config_.queue_capacity, validators);
  std::atomic<std::size_t> next_device{0};
  std::atomic<std::uint64_t> fetch_sim_total_ns{0};
  std::atomic<std::uint64_t> fetch_scaled_total_ns{0};
  std::atomic<std::size_t> alerts_high{0};
  std::atomic<std::size_t> alerts_low{0};
  std::mutex sink_mutex;
  const RiskPolicy risk(metadata_->topology());

  // Stage 2 — routing-table puller: fetch each device's table (with the
  // production fetch latency, scaled) and post a notification. A failed
  // fetch costs the cycle coverage, never the cycle. Notifications are
  // handed over in batches of kHandoffBatch, and before every latency
  // sleep, so a paced run still hands each table over before its next pull
  // starts; only back-to-back pulls are batched.
  const auto puller = [&](unsigned puller_index) {
    DeviceStep step(verifier_factory_, tally, step_metrics);
    std::mt19937_64 rng(config_.seed * 1315423911u + puller_index);
    std::uniform_int_distribution<std::int64_t> latency_us(
        config_.fetch_latency_min.count(), config_.fetch_latency_max.count());
    std::vector<Notification> batch;
    batch.reserve(kHandoffBatch);
    // Returns false once the queue is closed early (a validator failed).
    const auto flush = [&] {
      if (batch.empty()) return true;
      obs::ScopedTimer push_timer(metrics.queue_push_block_ns);
      const bool posted = queue.push(batch);
      push_timer.stop();
      const std::size_t depth = queue.size();
      live_queue_depth_.store(depth, std::memory_order_relaxed);
      if (metrics.queue_depth != nullptr) {
        metrics.queue_depth->set(static_cast<double>(depth));
      }
      return posted;
    };
    const auto fetch_all = [&] {
      while (true) {
        const std::size_t i =
            next_device.fetch_add(1, std::memory_order_relaxed);
        if (i >= devices.size()) return;
        const std::chrono::microseconds simulated(latency_us(rng));
        const auto scaled =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::duration<double, std::micro>(
                    static_cast<double>(simulated.count())) *
                config_.time_scale);
        if (scaled.count() > 0 && !flush()) return;
        obs::Span fetch_span("fetch", step_metrics.fetch_latency_ns,
                             config_.trace);
        if (scaled.count() > 0) std::this_thread::sleep_for(scaled);
        FetchOutcome pull = fibs_->try_fetch(devices[i]);
        fetch_span.stop();
        if (!step.account(pull)) continue;
        const auto simulated_ns = static_cast<std::uint64_t>(
            std::chrono::nanoseconds(simulated).count());
        fetch_sim_total_ns.fetch_add(simulated_ns, std::memory_order_relaxed);
        fetch_scaled_total_ns.fetch_add(
            static_cast<std::uint64_t>(scaled.count()),
            std::memory_order_relaxed);
        if (metrics.fetch_sim_ns != nullptr) {
          metrics.fetch_sim_ns->observe(simulated_ns);
        }
        batch.push_back(Notification{
            .device = devices[i],
            .pull = std::move(pull),
            .enqueued_at = metrics.queue_wait_ns != nullptr
                               ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{}});
        if (batch.size() == kHandoffBatch && !flush()) return;
      }
    };
    // What the puller still holds goes out on every exit, a throw included.
    try {
      fetch_all();
    } catch (...) {
      flush();
      throw;
    }
    flush();
  };

  // Stage 3 — routing-table validator: join table + contracts, verify (or
  // replay the cached verdict of an unchanged table), classify, alert.
  // Replayed violations flow through the same risk/alert path as fresh
  // ones, with the current pull's degraded flag.
  const auto validator = [&] {
    DeviceStep step(verifier_factory_, tally, step_metrics, cache,
                    config_.trace);
    std::vector<Notification> batch;
    batch.reserve(kHandoffBatch);
    while (queue.pop(batch, kHandoffBatch)) {
      live_queue_depth_.store(queue.size(), std::memory_order_relaxed);
      if (metrics.queue_wait_ns != nullptr) {
        const auto popped_at = std::chrono::steady_clock::now();
        for (const Notification& notification : batch) {
          metrics.queue_wait_ns->observe(static_cast<std::uint64_t>(
              (popped_at - notification.enqueued_at).count()));
        }
      }
      for (const Notification& notification : batch) {
        obs::Span validate_span("validate", nullptr, config_.trace);
        const bool degraded = notification.pull.degraded();
        const std::vector<Violation>& violations = step.verify(
            notification.device, plan->contracts_for(notification.device),
            notification.pull.table, degraded);
        obs::Span report_span("report", nullptr, config_.trace);
        for (const Violation& v : violations) {
          const RiskAssessment assessment = risk.assess(v, degraded);
          if (assessment.level == RiskLevel::kHigh) {
            alerts_high.fetch_add(1, std::memory_order_relaxed);
          } else {
            alerts_low.fetch_add(1, std::memory_order_relaxed);
          }
          if (alert_sink_) {
            const std::lock_guard lock(sink_mutex);
            alert_sink_(v, assessment);
          }
        }
        report_span.stop();
        validate_span.stop();
      }
    }
  };

  // Worker 0, the caller, only waits: each stage worker runs on a thread of
  // its own, where its spans are roots. Workers [1, V] validate, the rest
  // pull. The last puller out closes the queue, normally or by exception,
  // so the validators drain it and return. A validator closes it on its way
  // out too: a no-op after a drained queue, and after a failure it stops
  // the pullers' pushes.
  std::atomic<unsigned> pullers_left{pullers};
  exec::run(1 + validators + pullers, [&](unsigned worker) {
    if (worker == 0) return;
    const obs::CycleScope cycle_tag(cycle_id);
    const bool validates = worker <= validators;
    const auto leave = [&] {
      if (validates || --pullers_left == 0) queue.close();
    };
    try {
      validates ? validator() : puller(worker - 1 - validators);
    } catch (...) {
      leave();
      throw;
    }
    leave();
  });

  tally.copy_to(stats);
  stats.violations = tally.violations.load();
  stats.alerts_high = alerts_high.load();
  stats.alerts_low = alerts_low.load();
  stats.devices_revalidated = tally.devices_revalidated.load();
  stats.devices_skipped = tally.devices_skipped.load();
  stats.fetch_sim_total = std::chrono::nanoseconds(fetch_sim_total_ns.load());
  stats.fetch_scaled_total =
      std::chrono::nanoseconds(fetch_scaled_total_ns.load());
  stats.validate_total = std::chrono::nanoseconds(tally.verify_ns.load());
  stats.wall = std::chrono::steady_clock::now() - start;
  if (metrics.cycles_total != nullptr) {
    metrics.cycles_total->inc();
    step_metrics.coverage->set(stats.coverage());
    const std::size_t validated =
        stats.devices_revalidated + stats.devices_skipped;
    metrics.revalidation_ratio->set(
        validated == 0 ? 0.0
                       : static_cast<double>(stats.devices_revalidated) /
                             static_cast<double>(validated));
  }
  cycle_span.stop();

  // Publish the completed cycle to the telemetry plane.
  last_coverage_.store(stats.coverage(), std::memory_order_relaxed);
  last_breaker_opens_.store(stats.breaker_opens, std::memory_order_relaxed);
  last_devices_failed_.store(stats.devices_failed,
                             std::memory_order_relaxed);
  live_queue_depth_.store(0, std::memory_order_relaxed);
  last_cycle_end_ns_.store(std::chrono::steady_clock::now()
                               .time_since_epoch()
                               .count(),
                           std::memory_order_relaxed);
  cycles_completed_.fetch_add(1, std::memory_order_relaxed);
  return stats;
}

PipelineHealth MonitoringPipeline::health() const {
  PipelineHealth health;
  health.cycles_completed = cycles_completed_.load(std::memory_order_relaxed);
  health.cycle_in_progress =
      cycle_in_progress_.load(std::memory_order_relaxed);
  health.coverage = last_coverage_.load(std::memory_order_relaxed);
  health.queue_depth = live_queue_depth_.load(std::memory_order_relaxed);
  health.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  health.breaker_opens_last_cycle =
      last_breaker_opens_.load(std::memory_order_relaxed);
  health.devices_failed_last_cycle =
      last_devices_failed_.load(std::memory_order_relaxed);
  const std::int64_t end_ns =
      last_cycle_end_ns_.load(std::memory_order_relaxed);
  health.since_last_cycle =
      end_ns < 0 ? std::chrono::nanoseconds{-1}
                 : std::chrono::steady_clock::now().time_since_epoch() -
                       std::chrono::nanoseconds(end_ns);
  return health;
}

obs::HealthProbe make_pipeline_probe(const MonitoringPipeline& pipeline,
                                     ReadinessRules rules) {
  return [&pipeline, rules]() -> obs::HealthSnapshot {
    const PipelineHealth health = pipeline.health();
    obs::HealthSnapshot snapshot;
    char line[160];

    std::snprintf(line, sizeof(line),
                  "cycles_completed: %llu\ncycle_in_progress: %s\n"
                  "coverage: %.4f\nqueue: %zu/%zu\n"
                  "breaker_opens_last_cycle: %zu\n",
                  static_cast<unsigned long long>(health.cycles_completed),
                  health.cycle_in_progress ? "true" : "false",
                  health.coverage, health.queue_depth, health.queue_capacity,
                  health.breaker_opens_last_cycle);
    snapshot.detail = line;
    if (health.since_last_cycle.count() >= 0) {
      std::snprintf(
          line, sizeof(line), "cycle_age_s: %.3f\n",
          std::chrono::duration<double>(health.since_last_cycle).count());
      snapshot.detail += line;
    }

    const auto fail = [&](const char* reason) {
      snapshot.ready = false;
      snapshot.detail += std::string("not-ready: ") + reason + "\n";
    };
    if (health.cycles_completed == 0) {
      fail("no monitoring cycle has completed yet");
    } else {
      if (health.coverage < rules.min_coverage) {
        std::snprintf(line, sizeof(line),
                      "coverage %.4f below threshold %.4f", health.coverage,
                      rules.min_coverage);
        fail(line);
      }
      if (health.breaker_opens_last_cycle > rules.max_breaker_opens) {
        std::snprintf(line, sizeof(line),
                      "circuit breakers opened last cycle: %zu (max %zu)",
                      health.breaker_opens_last_cycle,
                      rules.max_breaker_opens);
        fail(line);
      }
      const double saturation =
          static_cast<double>(health.queue_depth) /
          static_cast<double>(health.queue_capacity);
      if (saturation > rules.max_queue_saturation) {
        std::snprintf(line, sizeof(line),
                      "notification queue saturated: %zu/%zu",
                      health.queue_depth, health.queue_capacity);
        fail(line);
      }
      if (rules.max_cycle_age.count() > 0 &&
          health.since_last_cycle > rules.max_cycle_age) {
        std::snprintf(
            line, sizeof(line), "last cycle is stale: %.3f s old (max %.3f)",
            std::chrono::duration<double>(health.since_last_cycle).count(),
            std::chrono::duration<double>(rules.max_cycle_age).count());
        fail(line);
      }
    }
    return snapshot;
  };
}

}  // namespace dcv::rcdc
