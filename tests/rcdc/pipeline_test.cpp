#include "rcdc/pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "rcdc/flaky_fib_source.hpp"
#include "rcdc/resilient_fib_source.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"

namespace dcv::rcdc {
namespace {

PipelineConfig fast_config() {
  return PipelineConfig{.puller_workers = 4,
                        .validator_workers = 4,
                        .fetch_latency_min = std::chrono::microseconds(200),
                        .fetch_latency_max = std::chrono::microseconds(800),
                        .time_scale = 0.01,
                        .seed = 5};
}

TEST(MonitoringPipeline, CleanCycleOnHealthyNetwork) {
  const auto topology = topo::build_clos(topo::ClosParams{});
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);
  MonitoringPipeline pipeline(metadata, fibs, make_trie_verifier_factory(),
                              fast_config());
  const auto stats = pipeline.run_cycle();
  EXPECT_EQ(stats.devices, topology.device_count());
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_EQ(stats.alerts_high + stats.alerts_low, 0u);
  EXPECT_GT(stats.contracts_checked, 0u);
  EXPECT_GT(stats.fetch_sim_total.count(), 0);
  EXPECT_GT(stats.fetch_scaled_total.count(), 0);
  EXPECT_GT(stats.wall.count(), 0);
}

TEST(MonitoringPipeline, AlertsFlowToSink) {
  auto topology = topo::build_figure3();
  topo::apply_figure3_failures(topology);
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);
  MonitoringPipeline pipeline(metadata, fibs, make_trie_verifier_factory(),
                              fast_config());
  std::vector<std::pair<Violation, RiskLevel>> alerts;
  pipeline.set_alert_sink(
      [&](const Violation& v, const RiskAssessment& assessment) {
        alerts.emplace_back(v, assessment.level);
      });
  const auto stats = pipeline.run_cycle();
  EXPECT_GT(stats.violations, 0u);
  EXPECT_EQ(alerts.size(), stats.violations);
  EXPECT_EQ(stats.alerts_high + stats.alerts_low, stats.violations);
  // The ToR default contract failures are high risk (2 of 4 uplinks left
  // is still >1, but the Prefix_B unresolved routes at spines are
  // high-risk) — just assert both classes are computed consistently.
  std::size_t high = 0;
  for (const auto& [violation, level] : alerts) {
    if (level == RiskLevel::kHigh) ++high;
  }
  EXPECT_EQ(high, stats.alerts_high);
}

TEST(MonitoringPipeline, FetchLatencySimulatedInProductionRange) {
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);
  MonitoringPipeline pipeline(metadata, fibs, make_trie_verifier_factory(),
                              fast_config());
  const auto stats = pipeline.run_cycle();
  // Mean simulated fetch latency must sit in the configured 200-800us
  // band (the paper's 200-800ms, scaled).
  const auto mean_ns = stats.fetch_sim_total.count() /
                       static_cast<std::int64_t>(stats.devices);
  EXPECT_GE(mean_ns, 200'000);
  EXPECT_LE(mean_ns, 800'000);
}

TEST(MonitoringPipeline, SingleWorkerConfigWorks) {
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);
  PipelineConfig config = fast_config();
  config.puller_workers = 1;
  config.validator_workers = 1;
  MonitoringPipeline pipeline(metadata, fibs, make_trie_verifier_factory(),
                              config);
  EXPECT_EQ(pipeline.run_cycle().devices, topology.device_count());
}

// A fetch layer that throws instead of reporting a failed pull: the
// exception surfaces from run_cycle, and the validators, waiting on a
// queue no puller will fill, are released instead of hanging the cycle.
TEST(MonitoringPipeline, ThrowingFetchSurfacesFromRunCycle) {
  class ThrowingFibSource final : public FibSource {
   public:
    [[nodiscard]] FetchOutcome try_fetch(topo::DeviceId) const override {
      throw std::runtime_error("fetch layer failed");
    }
  };
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const ThrowingFibSource fibs;
  MonitoringPipeline pipeline(metadata, fibs, make_trie_verifier_factory(),
                              fast_config());
  EXPECT_THROW((void)pipeline.run_cycle(), std::runtime_error);
  // The failed cycle is over: health and /readyz must not report it as
  // still running.
  EXPECT_FALSE(pipeline.health().cycle_in_progress);
}

// A verifier that throws takes its validator down: the queue closes, so
// pullers blocked on the full one-slot queue stop instead of hanging.
TEST(MonitoringPipeline, ThrowingVerifierSurfacesFromRunCycle) {
  class ThrowingVerifier final : public Verifier {
   public:
    [[nodiscard]] std::vector<Violation> check(
        const routing::ForwardingTable&, std::span<const Contract>,
        topo::DeviceId) override {
      throw std::runtime_error("verifier failed");
    }
  };
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);
  PipelineConfig config = fast_config();
  config.validator_workers = 1;
  config.queue_capacity = 1;
  MonitoringPipeline pipeline(
      metadata, fibs, [] { return std::make_unique<ThrowingVerifier>(); },
      config);
  EXPECT_THROW((void)pipeline.run_cycle(), std::runtime_error);
}

TEST(MonitoringPipeline, BoundedQueueBackpressuresWithoutLoss) {
  // Capacity 1 forces every push to wait for a pop: the cycle must still
  // validate every device exactly once.
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);
  PipelineConfig config = fast_config();
  config.queue_capacity = 1;
  config.puller_workers = 8;
  config.validator_workers = 2;
  MonitoringPipeline pipeline(metadata, fibs, make_trie_verifier_factory(),
                              config);
  const auto stats = pipeline.run_cycle();
  EXPECT_EQ(stats.devices, topology.device_count());
  EXPECT_EQ(stats.devices_failed, 0u);
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_GT(stats.contracts_checked, 0u);
}

/// Counts, per device, the checks of the verifiers it hands out, and wakes
/// anyone waiting on one.
class CheckLog {
 public:
  explicit CheckLog(std::size_t devices) : checks_(devices, 0) {}

  [[nodiscard]] VerifierFactory factory() {
    return [this] { return std::make_unique<Recording>(*this); };
  }

  /// Waits up to `timeout` for `device` to be checked; false on timeout.
  bool wait_checked(topo::DeviceId device, std::chrono::seconds timeout) {
    std::unique_lock lock(mutex_);
    return checked_.wait_for(lock, timeout,
                             [&] { return checks_[device] > 0; });
  }

  [[nodiscard]] std::vector<int> checks() {
    const std::lock_guard lock(mutex_);
    return checks_;
  }

 private:
  class Recording final : public Verifier {
   public:
    explicit Recording(CheckLog& log)
        : log_(&log), inner_(make_trie_verifier_factory()()) {}
    [[nodiscard]] std::vector<Violation> check(
        const routing::ForwardingTable& fib,
        std::span<const Contract> contracts, topo::DeviceId device) override {
      std::vector<Violation> violations = inner_->check(fib, contracts, device);
      {
        const std::lock_guard lock(log_->mutex_);
        ++log_->checks_[device];
      }
      log_->checked_.notify_all();
      return violations;
    }

   private:
    CheckLog* log_;
    std::unique_ptr<Verifier> inner_;
  };

  std::mutex mutex_;
  std::condition_variable checked_;
  std::vector<int> checks_;
};

// A paced run hands each pulled table to the validators before its next
// pull starts: fetching a device waits until the device fetched before it
// has been checked. A puller that held its notifications back until a batch
// filled would stall each of those waits for the full 10 s.
TEST(MonitoringPipeline, PacedPullerHandsOverEachTableBeforeItsNextPull) {
  class LockstepFibSource final : public FibSource {
   public:
    LockstepFibSource(const FibSource& inner, CheckLog& log)
        : inner_(&inner), log_(&log) {}
    [[nodiscard]] FetchOutcome try_fetch(
        topo::DeviceId device) const override {
      if (previous_ != topo::kInvalidDevice && !timed_out_ &&
          !log_->wait_checked(previous_, std::chrono::seconds(10))) {
        timed_out_ = true;
      }
      previous_ = device;
      return inner_->try_fetch(device);
    }
    [[nodiscard]] bool timed_out() const { return timed_out_; }

   private:
    const FibSource* inner_;
    CheckLog* log_;
    // One puller fetches, so only its thread touches these.
    mutable topo::DeviceId previous_ = topo::kInvalidDevice;
    mutable bool timed_out_ = false;
  };
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  CheckLog log(topology.device_count());
  const LockstepFibSource fibs(inner, log);
  MonitoringPipeline pipeline(
      metadata, fibs, log.factory(),
      PipelineConfig{.puller_workers = 1,
                     .validator_workers = 1,
                     .fetch_latency_min = std::chrono::microseconds(1),
                     .fetch_latency_max = std::chrono::microseconds(1),
                     .time_scale = 1.0,
                     .incremental = false});
  const auto stats = pipeline.run_cycle();
  EXPECT_FALSE(fibs.timed_out());
  EXPECT_GT(stats.devices, 1u);
  std::size_t checked = 0;
  for (const int count : log.checks()) {
    checked += static_cast<std::size_t>(count);
  }
  EXPECT_EQ(checked, stats.devices);
}

// Back-to-back pulls are batched, yet every device is verified exactly once
// and the queue never holds more notifications than its capacity — also
// when the capacity is smaller than a batch, or not a divisor of it.
TEST(MonitoringPipeline, ZeroLatencyBatchesVerifyEachDeviceExactlyOnce) {
  const auto topology = topo::build_clos(
      topo::ClosParams{.clusters = 8, .tors_per_cluster = 16});
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);
  for (const std::size_t capacity : {1u, 3u, 256u}) {
    SCOPED_TRACE(capacity);
    CheckLog log(topology.device_count());
    MonitoringPipeline pipeline(metadata, fibs, log.factory(),
                                PipelineConfig{.puller_workers = 8,
                                               .validator_workers = 2,
                                               .time_scale = 0.0,
                                               .seed = 5,
                                               .queue_capacity = capacity,
                                               .incremental = false});
    std::atomic<bool> done{false};
    std::atomic<std::size_t> max_depth{0};
    std::thread reader([&] {
      while (!done.load()) {
        const std::size_t depth = pipeline.health().queue_depth;
        if (depth > max_depth.load()) max_depth.store(depth);
        std::this_thread::yield();
      }
    });
    const auto stats = pipeline.run_cycle();
    done.store(true);
    reader.join();
    ASSERT_GE(stats.devices, 4u * 32u);
    EXPECT_EQ(stats.devices_failed, 0u);
    std::size_t checked = 0;
    for (const int count : log.checks()) {
      EXPECT_LE(count, 1);
      checked += static_cast<std::size_t>(count);
    }
    EXPECT_EQ(checked, stats.devices);
    EXPECT_LE(max_depth.load(), capacity);
  }
}

TEST(MonitoringPipeline, StatsMeansMatchTotals) {
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);
  MonitoringPipeline pipeline(metadata, fibs, make_trie_verifier_factory(),
                              fast_config());
  const auto stats = pipeline.run_cycle();
  ASSERT_GT(stats.devices, 0u);
  EXPECT_EQ(stats.fetch_sim_mean().count(),
            stats.fetch_sim_total.count() /
                static_cast<std::int64_t>(stats.devices));
  EXPECT_EQ(stats.fetch_scaled_mean().count(),
            stats.fetch_scaled_total.count() /
                static_cast<std::int64_t>(stats.devices));
  EXPECT_EQ(stats.validate_mean().count(),
            stats.validate_total.count() /
                static_cast<std::int64_t>(stats.devices));
  EXPECT_DOUBLE_EQ(stats.coverage(), 1.0);
}

// The bugfix this PR carries: `wall` is measured on the real (scaled)
// clock while the old fetch_total summed *pre-scale* simulated latencies —
// mixing the two inflated utilization ratios by 1/time_scale. Both totals
// are now explicit; assert their exact relationship. Each device's scaled
// sleep is duration_cast-truncated from simulated*time_scale, so the sum
// differs from fetch_sim_total*time_scale by < 1ns per fetched device.
TEST(MonitoringPipeline, ScaledAndSimulatedFetchTotalsRelate) {
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);
  const auto config = fast_config();
  MonitoringPipeline pipeline(metadata, fibs, make_trie_verifier_factory(),
                              config);
  const auto stats = pipeline.run_cycle();
  ASSERT_EQ(stats.devices_failed, 0u);

  const double expected_scaled =
      static_cast<double>(stats.fetch_sim_total.count()) * config.time_scale;
  const double actual_scaled =
      static_cast<double>(stats.fetch_scaled_total.count());
  EXPECT_LE(actual_scaled, expected_scaled);
  EXPECT_GE(actual_scaled,
            expected_scaled - static_cast<double>(stats.devices));

  // With time_scale < 1, the simulated total is strictly larger than the
  // scaled one, and only the scaled total can sensibly relate to wall.
  EXPECT_GT(stats.fetch_sim_total, stats.fetch_scaled_total);
  // The cycle cannot finish faster than the scaled fetch work spread
  // across the puller pool.
  EXPECT_GE(stats.wall.count() * static_cast<std::int64_t>(
                                     config.puller_workers),
            stats.fetch_scaled_total.count());
}

// Acceptance: at a 20% transient-failure rate with retries enabled, a full
// cycle over a 3-tier Clos completes with 100% device coverage and zero
// spurious violations vs. the fault-free baseline.
TEST(MonitoringPipeline, TwentyPercentFlakinessWithRetriesKeepsFullCoverage) {
  const auto topology = topo::build_clos(topo::ClosParams{});
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);

  const auto baseline = [&] {
    MonitoringPipeline pipeline(metadata, inner,
                                make_trie_verifier_factory(), fast_config());
    return pipeline.run_cycle();
  }();
  ASSERT_EQ(baseline.violations, 0u);

  const FlakyFibSource flaky(inner,
                             FlakyConfig{.transient_rate = 0.2, .seed = 31});
  ManualFetchClock clock;
  const ResilientFibSource hardened(
      flaky,
      ResilienceConfig{.retry = {.max_attempts = 6,
                                 .initial_backoff =
                                     std::chrono::milliseconds(50)},
                       .breaker = {.failure_threshold = 10,
                                   .cool_down = std::chrono::seconds(30)},
                       .seed = 3},
      &clock);
  MonitoringPipeline pipeline(metadata, hardened,
                              make_trie_verifier_factory(), fast_config());
  const auto stats = pipeline.run_cycle();
  EXPECT_EQ(stats.devices, baseline.devices);
  EXPECT_EQ(stats.devices_failed, 0u);
  EXPECT_DOUBLE_EQ(stats.coverage(), 1.0);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.violations, baseline.violations);  // zero spurious
  EXPECT_EQ(stats.violations_degraded, 0u);
}

// Acceptance: with retries disabled the cycle still completes, reporting
// the failed devices in PipelineStats rather than throwing.
TEST(MonitoringPipeline, FlakinessWithoutRetriesCompletesWithPartialCoverage) {
  const auto topology = topo::build_clos(topo::ClosParams{});
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  const FlakyFibSource flaky(inner,
                             FlakyConfig{.transient_rate = 0.2, .seed = 31});
  MonitoringPipeline pipeline(metadata, flaky, make_trie_verifier_factory(),
                              fast_config());
  const auto stats = pipeline.run_cycle();
  EXPECT_EQ(stats.devices, topology.device_count());
  EXPECT_GT(stats.devices_failed, 0u);
  EXPECT_LT(stats.coverage(), 1.0);
  EXPECT_EQ(stats.retries, 0u);
  // Transient failures yield no table at all, so nothing spurious is
  // validated.
  EXPECT_EQ(stats.violations, 0u);
}

TEST(MonitoringPipeline, GarbageTablesProduceDegradedConfidenceAlerts) {
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  const FlakyFibSource flaky(inner,
                             FlakyConfig{.truncate_rate = 1.0, .seed = 7});
  MonitoringPipeline pipeline(metadata, flaky, make_trie_verifier_factory(),
                              fast_config());
  std::size_t degraded_alerts = 0;
  pipeline.set_alert_sink(
      [&](const Violation&, const RiskAssessment& assessment) {
        if (assessment.degraded_confidence) ++degraded_alerts;
      });
  const auto stats = pipeline.run_cycle();
  // Every table was truncated garbage: violations exist and every alert is
  // flagged lower-confidence.
  EXPECT_GT(stats.violations, 0u);
  EXPECT_EQ(stats.violations_degraded, stats.violations);
  EXPECT_EQ(degraded_alerts, stats.violations);
  EXPECT_EQ(stats.devices_failed, 0u);
}

// Acceptance: a persistently dead device trips the breaker after the
// configured threshold, subsequent cycles skip it within the cool-down
// (counted as devices_failed), and a half-open probe restores it once the
// source recovers.
TEST(MonitoringPipeline, BreakerSkipsDeadDeviceAcrossCyclesThenRecovers) {
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  FlakyFibSource flaky(inner, FlakyConfig{.seed = 1});
  const topo::DeviceId dead = *topology.find_device("ToR1");
  flaky.mark_dead(dead);

  ManualFetchClock clock;
  const ResilientFibSource hardened(
      flaky,
      ResilienceConfig{.retry = {.max_attempts = 2,
                                 .initial_backoff =
                                     std::chrono::milliseconds(10)},
                       .breaker = {.failure_threshold = 2,
                                   .cool_down = std::chrono::hours(1)},
                       .serve_stale = false},
      &clock);
  MonitoringPipeline pipeline(metadata, hardened,
                              make_trie_verifier_factory(), fast_config());

  const auto first = pipeline.run_cycle();
  EXPECT_EQ(first.devices_failed, 1u);
  EXPECT_EQ(first.breaker_opens, 0u);

  const auto second = pipeline.run_cycle();  // reaches the threshold
  EXPECT_EQ(second.devices_failed, 1u);
  EXPECT_EQ(second.breaker_opens, 1u);
  EXPECT_EQ(hardened.breaker_state(dead), BreakerState::kOpen);

  // Within the cool-down the dead device is skipped, not re-pulled.
  const auto flaky_calls_before = flaky.records().size();
  const auto third = pipeline.run_cycle();
  EXPECT_EQ(third.devices_failed, 1u);
  EXPECT_EQ(third.retries, 0u);
  EXPECT_EQ(flaky.records().size(), flaky_calls_before);
  EXPECT_GE(hardened.stats().short_circuits, 1u);

  // The device recovers; after the cool-down a half-open probe restores it.
  flaky.revive(dead);
  clock.advance(std::chrono::hours(2));
  const auto fourth = pipeline.run_cycle();
  EXPECT_EQ(fourth.devices_failed, 0u);
  EXPECT_DOUBLE_EQ(fourth.coverage(), 1.0);
  EXPECT_EQ(hardened.breaker_state(dead), BreakerState::kClosed);
  EXPECT_GE(hardened.stats().half_open_probes, 1u);
}

TEST(MonitoringPipeline, StaleFallbackCountsDevicesStale) {
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  FlakyFibSource flaky(inner, FlakyConfig{.seed = 1});
  const topo::DeviceId victim = *topology.find_device("ToR1");

  ManualFetchClock clock;
  const ResilientFibSource hardened(
      flaky,
      ResilienceConfig{.retry = {.max_attempts = 2,
                                 .initial_backoff =
                                     std::chrono::milliseconds(10)},
                       .breaker = {.failure_threshold = 100,
                                   .cool_down = std::chrono::seconds(30)},
                       .serve_stale = true},
      &clock);
  MonitoringPipeline pipeline(metadata, hardened,
                              make_trie_verifier_factory(), fast_config());

  const auto warm = pipeline.run_cycle();  // populate every cache
  ASSERT_EQ(warm.devices_failed, 0u);

  flaky.mark_dead(victim);
  const auto degraded = pipeline.run_cycle();
  // The dead device's last good table is served stale: coverage holds, the
  // device is counted stale, and (the network being healthy when cached)
  // no violations appear.
  EXPECT_EQ(degraded.devices_failed, 0u);
  EXPECT_EQ(degraded.devices_stale, 1u);
  EXPECT_DOUBLE_EQ(degraded.coverage(), 1.0);
  EXPECT_EQ(degraded.violations, 0u);
}

TEST(MonitoringPipeline, RepeatedCyclesAreStable) {
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);
  MonitoringPipeline pipeline(metadata, fibs, make_trie_verifier_factory(),
                              fast_config());
  const auto first = pipeline.run_cycle();
  const auto second = pipeline.run_cycle();
  EXPECT_EQ(first.devices, second.devices);
  EXPECT_EQ(first.violations, second.violations);
  // Incremental mode (the default): cycle 1 verifies everything, cycle 2
  // finds every fingerprint unchanged and replays cached verdicts without
  // checking a single contract.
  EXPECT_EQ(first.devices_revalidated, first.devices);
  EXPECT_EQ(first.devices_skipped, 0u);
  EXPECT_EQ(second.devices_revalidated, 0u);
  EXPECT_EQ(second.devices_skipped, second.devices);
  EXPECT_EQ(second.contracts_checked, 0u);
}

TEST(MonitoringPipeline, NonIncrementalModeRechecksEveryCycle) {
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);
  auto config = fast_config();
  config.incremental = false;
  MonitoringPipeline pipeline(metadata, fibs, make_trie_verifier_factory(),
                              config);
  const auto first = pipeline.run_cycle();
  const auto second = pipeline.run_cycle();
  EXPECT_EQ(first.violations, second.violations);
  EXPECT_EQ(first.contracts_checked, second.contracts_checked);
  EXPECT_GT(second.contracts_checked, 0u);
  EXPECT_EQ(second.devices_revalidated, second.devices);
  EXPECT_EQ(second.devices_skipped, 0u);
}

std::uint64_t fingerprint_count(obs::MetricsRegistry& registry) {
  return registry.histogram("dcv_incremental_fingerprint_ns", "").count();
}

// The identity fast path: the simulator hands out the same table object
// while a device is unchanged, so a no-change warm cycle neither verifies
// nor even fingerprints a single device.
TEST(MonitoringPipeline, UnchangedHandlesSkipFingerprintAndVerify) {
  const auto topology = topo::build_clos(topo::ClosParams{});
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);
  obs::MetricsRegistry registry;
  PipelineConfig config = fast_config();
  config.metrics = &registry;
  MonitoringPipeline pipeline(metadata, fibs, make_trie_verifier_factory(),
                              config);
  const auto cold = pipeline.run_cycle();
  EXPECT_EQ(fingerprint_count(registry), cold.devices_revalidated);
  EXPECT_EQ(cold.devices_revalidated, cold.devices);

  const auto warm = pipeline.run_cycle();
  EXPECT_EQ(fingerprint_count(registry), cold.devices_revalidated);
  EXPECT_EQ(warm.devices_revalidated, 0u);
  EXPECT_EQ(warm.devices_skipped, warm.devices);
  EXPECT_EQ(warm.contracts_checked, 0u);
}

// After a device fault and a warm reconvergence only the devices whose
// cached table the simulator replaced are fingerprinted; the rest ride the
// identity path.
TEST(MonitoringPipeline, OnlyChangedHandlesAreFingerprinted) {
  auto topology = topo::build_clos(topo::ClosParams{});
  const topo::MetadataService metadata(topology);
  topo::FaultInjector faults(topology);
  routing::BgpSimulator sim(topology, &faults);
  const SimulatorFibSource fibs(sim);
  obs::MetricsRegistry registry;
  PipelineConfig config = fast_config();
  config.metrics = &registry;
  MonitoringPipeline pipeline(metadata, fibs, make_trie_verifier_factory(),
                              config);
  const auto cold = pipeline.run_cycle();
  ASSERT_EQ(cold.devices, topology.device_count());
  ASSERT_EQ(cold.violations, 0u);

  std::vector<routing::FibPtr> before;
  for (const topo::Device& d : topology.devices()) {
    before.push_back(sim.fib_handle(d.id));
  }
  const topo::DeviceId tor = topology.devices_with_role(
      topo::DeviceRole::kTor)[0];
  faults.device_fault(tor, topo::DeviceFaultKind::kRejectDefaultRoute);
  ASSERT_GT(sim.reconverge(), 0);
  std::size_t changed = 0;
  for (const topo::Device& d : topology.devices()) {
    if (sim.fib_handle(d.id) != before[d.id]) ++changed;
  }
  ASSERT_GT(changed, 0u);
  ASSERT_LT(changed, cold.devices);

  const std::uint64_t cold_prints = fingerprint_count(registry);
  const auto warm = pipeline.run_cycle();
  EXPECT_EQ(fingerprint_count(registry) - cold_prints, changed);
  EXPECT_GT(warm.devices_revalidated, 0u);
  EXPECT_LE(warm.devices_revalidated, changed);
  EXPECT_EQ(warm.devices_revalidated + warm.devices_skipped, warm.devices);
  EXPECT_GT(warm.violations, 0u);
}

// An expected-topology change invalidates every verdict, so held handles
// must not short-circuit the cycle even though no table changed.
TEST(MonitoringPipeline, EpochBumpRevalidatesDespiteSameHandles) {
  auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);
  MonitoringPipeline pipeline(metadata, fibs, make_trie_verifier_factory(),
                              fast_config());
  (void)pipeline.run_cycle();
  ASSERT_EQ(pipeline.run_cycle().devices_revalidated, 0u);
  topology.set_asn(*topology.find_device("ToR1"), topo::Asn{65099});
  const auto after = pipeline.run_cycle();
  EXPECT_EQ(after.devices_revalidated, after.devices);
  EXPECT_EQ(after.devices_skipped, 0u);
}

}  // namespace
}  // namespace dcv::rcdc
