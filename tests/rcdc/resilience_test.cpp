#include <chrono>
#include <map>

#include <gtest/gtest.h>

#include "rcdc/flaky_fib_source.hpp"
#include "rcdc/resilient_fib_source.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"

namespace dcv::rcdc {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

routing::ForwardingTable simple_table() {
  routing::ForwardingTable table;
  table.add(routing::Rule{.prefix = net::Prefix::default_route(),
                          .next_hops = {1, 2}});
  return table;
}

/// Test double whose failures are scripted per device: fails the next N
/// attempts with a given kind, then succeeds. No randomness, no clock.
class ScriptedFibSource final : public FibSource {
 public:
  explicit ScriptedFibSource(routing::ForwardingTable table)
      : table_(routing::share_fib(std::move(table))) {}

  void fail_next(topo::DeviceId device, int count, FetchErrorKind kind) {
    remaining_[device] = count;
    kind_[device] = kind;
  }

  [[nodiscard]] int calls(topo::DeviceId device) const {
    const auto it = calls_.find(device);
    return it == calls_.end() ? 0 : it->second;
  }

  [[nodiscard]] FetchOutcome try_fetch(topo::DeviceId device) const override {
    ++calls_[device];
    auto it = remaining_.find(device);
    if (it != remaining_.end() && it->second != 0) {
      if (it->second > 0) --it->second;
      return FetchOutcome::failure(kind_.at(device));
    }
    return FetchOutcome::success(table_);
  }

 private:
  routing::FibPtr table_;
  mutable std::map<topo::DeviceId, int> remaining_;  // -1 = fail forever
  mutable std::map<topo::DeviceId, int> calls_;
  std::map<topo::DeviceId, FetchErrorKind> kind_;
};

// ---------------------------------------------------------------- flaky --

TEST(FlakyFibSource, ZeroRatesNeverFail) {
  const auto topology = topo::build_figure3();
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  const FlakyFibSource flaky(inner, FlakyConfig{.seed = 3});
  for (const topo::Device& d : topology.devices()) {
    const auto outcome = flaky.try_fetch(d.id);
    EXPECT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome.has_table());
    EXPECT_EQ(*outcome.table, sim.fib(d.id));
  }
  EXPECT_TRUE(flaky.records().empty());
}

TEST(FlakyFibSource, SameSeedSameFailureSchedule) {
  const auto topology = topo::build_figure3();
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  const FlakyConfig config{.timeout_rate = 0.1,
                           .transient_rate = 0.3,
                           .truncate_rate = 0.1,
                           .seed = 17};
  const FlakyFibSource a(inner, config);
  const FlakyFibSource b(inner, config);
  for (int round = 0; round < 20; ++round) {
    for (const topo::Device& d : topology.devices()) {
      const auto oa = a.try_fetch(d.id);
      const auto ob = b.try_fetch(d.id);
      EXPECT_EQ(oa.error, ob.error);
      EXPECT_EQ(oa.has_table(), ob.has_table());
    }
  }
  const auto ra = a.records();
  const auto rb = b.records();
  ASSERT_EQ(ra.size(), rb.size());
  EXPECT_GT(ra.size(), 0u);
}

TEST(FlakyFibSource, TruncatedTablesAreSmallerAndTagged) {
  const auto topology = topo::build_figure3();
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  const FlakyFibSource flaky(inner,
                             FlakyConfig{.truncate_rate = 1.0, .seed = 5});
  const topo::DeviceId device = *topology.find_device("ToR1");
  const auto outcome = flaky.try_fetch(device);
  ASSERT_TRUE(outcome.error.has_value());
  EXPECT_EQ(*outcome.error, FetchErrorKind::kTruncatedTable);
  ASSERT_TRUE(outcome.has_table());
  EXPECT_TRUE(outcome.degraded());
  const auto full = sim.fib(device);
  EXPECT_LT(outcome.table->size(), full.size());
  EXPECT_GE(outcome.table->size(), 1u);
}

TEST(FlakyFibSource, CorruptedTablesDifferAndTagged) {
  const auto topology = topo::build_figure3();
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  const FlakyFibSource flaky(inner,
                             FlakyConfig{.corrupt_rate = 1.0, .seed = 5});
  const topo::DeviceId device = *topology.find_device("ToR1");
  const auto outcome = flaky.try_fetch(device);
  ASSERT_TRUE(outcome.error.has_value());
  EXPECT_EQ(*outcome.error, FetchErrorKind::kCorruptedEntry);
  ASSERT_TRUE(outcome.has_table());
  EXPECT_NE(*outcome.table, sim.fib(device));
}

TEST(FlakyFibSource, LegacyFetchThrowsOnInjectedFailure) {
  const auto topology = topo::build_figure3();
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  const FlakyFibSource flaky(inner,
                             FlakyConfig{.transient_rate = 1.0, .seed = 1});
  EXPECT_THROW((void)flaky.fetch(0), FetchError);
}

TEST(FlakyFibSource, DeadDeviceAlwaysUnreachableUntilRevived) {
  const auto topology = topo::build_figure3();
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  FlakyFibSource flaky(inner, FlakyConfig{.seed = 1});
  flaky.mark_dead(3);
  for (int i = 0; i < 5; ++i) {
    const auto outcome = flaky.try_fetch(3);
    ASSERT_TRUE(outcome.error.has_value());
    EXPECT_EQ(*outcome.error, FetchErrorKind::kUnreachable);
    EXPECT_FALSE(outcome.has_table());
  }
  flaky.revive(3);
  EXPECT_TRUE(flaky.try_fetch(3).ok());
}

TEST(FlakyFibSource, RecordsComposeWithFaultInjectorGroundTruth) {
  // Network-layer faults (FaultInjector) and fetch-layer faults
  // (FlakyFibSource) are recorded separately; together they explain both
  // the contract violations and the coverage gaps a run observes.
  auto topology = topo::build_figure3();
  topo::FaultInjector injector(topology);
  injector.link_down(0);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  FlakyFibSource flaky(inner, FlakyConfig{.seed = 2});
  flaky.mark_dead(*topology.find_device("ToR2"));
  (void)flaky.try_fetch(*topology.find_device("ToR2"));
  ASSERT_EQ(injector.records().size(), 1u);
  ASSERT_EQ(flaky.records().size(), 1u);
  const std::string fetch_fault = flaky.records()[0].to_string(topology);
  EXPECT_NE(fetch_fault.find("fetch-unreachable"), std::string::npos);
  EXPECT_NE(fetch_fault.find("ToR2"), std::string::npos);
  EXPECT_NE(injector.records()[0].to_string(topology).find("link-down"),
            std::string::npos);
}

// ------------------------------------------------------------- resilient --

ResilienceConfig fast_resilience() {
  return ResilienceConfig{
      .retry = {.max_attempts = 3,
                .initial_backoff = milliseconds(100),
                .backoff_multiplier = 2.0,
                .max_backoff = seconds(2),
                .jitter = 0.2,
                .fetch_deadline = seconds(60)},
      .breaker = {.failure_threshold = 3, .cool_down = seconds(30)},
      .serve_stale = true,
      .seed = 9};
}

TEST(ResilientFibSource, RetriesUntilSuccess) {
  ScriptedFibSource inner(simple_table());
  inner.fail_next(0, 2, FetchErrorKind::kTransient);
  ManualFetchClock clock;
  const ResilientFibSource source(inner, fast_resilience(), &clock);
  const auto outcome = source.try_fetch(0);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_FALSE(outcome.stale);
  EXPECT_EQ(inner.calls(0), 3);
  EXPECT_EQ(source.stats().retries, 2u);
}

TEST(ResilientFibSource, BackoffIsExponentialWithBoundedJitter) {
  ScriptedFibSource inner(simple_table());
  inner.fail_next(0, 2, FetchErrorKind::kTransient);
  ManualFetchClock clock;
  const ResilientFibSource source(inner, fast_resilience(), &clock);
  const auto before = clock.now();
  ASSERT_TRUE(source.try_fetch(0).ok());
  const auto slept = clock.now() - before;
  // Two backoffs of nominally 100ms and 200ms, each jittered by ±20%.
  EXPECT_GE(slept, milliseconds(240));
  EXPECT_LE(slept, milliseconds(360));
}

TEST(ResilientFibSource, DeadlineStopsRetrying) {
  ScriptedFibSource inner(simple_table());
  inner.fail_next(0, -1, FetchErrorKind::kTimeout);
  auto config = fast_resilience();
  config.retry.max_attempts = 10;
  config.retry.fetch_deadline = milliseconds(150);
  config.serve_stale = false;
  ManualFetchClock clock;
  const ResilientFibSource source(inner, config, &clock);
  const auto outcome = source.try_fetch(0);
  EXPECT_FALSE(outcome.ok());
  // First attempt + one ~100ms backoff fit the budget; the ~200ms second
  // backoff would overrun it, so exactly two attempts run.
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(*outcome.error, FetchErrorKind::kTimeout);
}

TEST(ResilientFibSource, BreakerTripsAfterThresholdAndShortCircuits) {
  ScriptedFibSource inner(simple_table());
  inner.fail_next(0, -1, FetchErrorKind::kUnreachable);
  auto config = fast_resilience();
  config.retry.max_attempts = 2;
  config.serve_stale = false;
  ManualFetchClock clock;
  const ResilientFibSource source(inner, config, &clock);

  // Three exhausted fetches reach the threshold; the third trips the
  // breaker.
  for (int i = 0; i < 2; ++i) {
    const auto outcome = source.try_fetch(0);
    EXPECT_FALSE(outcome.ok());
    EXPECT_FALSE(outcome.breaker_tripped);
    EXPECT_EQ(source.breaker_state(0), BreakerState::kClosed);
  }
  const auto tripping = source.try_fetch(0);
  EXPECT_FALSE(tripping.ok());
  EXPECT_TRUE(tripping.breaker_tripped);
  EXPECT_EQ(source.breaker_state(0), BreakerState::kOpen);
  EXPECT_EQ(source.stats().breaker_opens, 1u);

  // While open (cool-down not elapsed) the device is never contacted.
  const int calls_before = inner.calls(0);
  const auto skipped = source.try_fetch(0);
  EXPECT_FALSE(skipped.ok());
  EXPECT_TRUE(skipped.breaker_open);
  EXPECT_EQ(skipped.attempts, 0u);
  EXPECT_EQ(*skipped.error, FetchErrorKind::kUnreachable);
  EXPECT_EQ(inner.calls(0), calls_before);
  EXPECT_GE(source.stats().short_circuits, 1u);
}

TEST(ResilientFibSource, HalfOpenProbeRestoresRecoveredDevice) {
  ScriptedFibSource inner(simple_table());
  inner.fail_next(0, -1, FetchErrorKind::kUnreachable);
  auto config = fast_resilience();
  config.retry.max_attempts = 1;
  config.breaker.failure_threshold = 2;
  config.serve_stale = false;
  ManualFetchClock clock;
  const ResilientFibSource source(inner, config, &clock);

  (void)source.try_fetch(0);
  (void)source.try_fetch(0);
  ASSERT_EQ(source.breaker_state(0), BreakerState::kOpen);

  // Device recovers; after the cool-down one half-open probe succeeds and
  // closes the breaker.
  inner.fail_next(0, 0, FetchErrorKind::kUnreachable);
  clock.advance(config.breaker.cool_down + seconds(1));
  const auto probe = source.try_fetch(0);
  EXPECT_TRUE(probe.ok());
  EXPECT_EQ(probe.attempts, 1u);
  EXPECT_EQ(source.breaker_state(0), BreakerState::kClosed);
  EXPECT_EQ(source.stats().half_open_probes, 1u);
  EXPECT_TRUE(source.try_fetch(0).ok());
}

TEST(ResilientFibSource, FailedProbeReopensBreaker) {
  ScriptedFibSource inner(simple_table());
  inner.fail_next(0, -1, FetchErrorKind::kUnreachable);
  auto config = fast_resilience();
  config.retry.max_attempts = 1;
  config.breaker.failure_threshold = 2;
  config.serve_stale = false;
  ManualFetchClock clock;
  const ResilientFibSource source(inner, config, &clock);

  (void)source.try_fetch(0);
  (void)source.try_fetch(0);
  ASSERT_EQ(source.breaker_state(0), BreakerState::kOpen);
  clock.advance(config.breaker.cool_down + seconds(1));
  const auto probe = source.try_fetch(0);
  EXPECT_FALSE(probe.ok());
  EXPECT_EQ(probe.attempts, 1u);  // a probe gets one attempt, not a budget
  EXPECT_TRUE(probe.breaker_tripped);
  EXPECT_EQ(source.breaker_state(0), BreakerState::kOpen);
  EXPECT_EQ(source.stats().breaker_opens, 2u);
}

TEST(ResilientFibSource, ServesStaleTableWithStalenessTag) {
  ScriptedFibSource inner(simple_table());
  ManualFetchClock clock;
  const ResilientFibSource source(inner, fast_resilience(), &clock);

  ASSERT_TRUE(source.try_fetch(0).ok());  // populate the cache
  clock.advance(seconds(90));
  inner.fail_next(0, -1, FetchErrorKind::kTransient);
  const auto outcome = source.try_fetch(0);
  EXPECT_FALSE(outcome.ok());
  ASSERT_TRUE(outcome.has_table());
  EXPECT_TRUE(outcome.stale);
  EXPECT_TRUE(outcome.degraded());
  EXPECT_GE(outcome.staleness, seconds(90));
  EXPECT_EQ(*outcome.table, simple_table());
  EXPECT_EQ(source.stats().stale_served, 1u);
}

TEST(ResilientFibSource, StaleCacheBeatsFreshGarbage) {
  const auto topology = topo::build_figure3();
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  const topo::DeviceId device = *topology.find_device("ToR1");

  // First pull clean, then 100% truncation: the cached clean table must be
  // served (tagged stale) instead of the truncated garbage.
  FlakyConfig flaky_config{.truncate_rate = 1.0, .seed = 4};
  struct CleanThenFlaky final : FibSource {
    const FibSource* clean;
    const FibSource* flaky;
    mutable std::atomic<int> calls{0};
    [[nodiscard]] FetchOutcome try_fetch(topo::DeviceId d) const override {
      return calls++ == 0 ? clean->try_fetch(d) : flaky->try_fetch(d);
    }
  };
  const FlakyFibSource flaky(inner, flaky_config);
  CleanThenFlaky switching;
  switching.clean = &inner;
  switching.flaky = &flaky;

  ManualFetchClock clock;
  const ResilientFibSource source(switching, fast_resilience(), &clock);
  ASSERT_TRUE(source.try_fetch(device).ok());
  const auto outcome = source.try_fetch(device);
  ASSERT_TRUE(outcome.has_table());
  EXPECT_TRUE(outcome.stale);
  EXPECT_EQ(*outcome.table, sim.fib(device));  // the clean cached table
}

TEST(ResilientFibSource, LegacyFetchReturnsTableOrThrows) {
  ScriptedFibSource inner(simple_table());
  auto config = fast_resilience();
  config.serve_stale = false;
  ManualFetchClock clock;
  const ResilientFibSource source(inner, config, &clock);
  EXPECT_EQ(*source.fetch(0), simple_table());
  inner.fail_next(1, -1, FetchErrorKind::kUnreachable);
  EXPECT_THROW((void)source.fetch(1), FetchError);
}

// ----------------------------------------------- datacenter validator --

TEST(DatacenterValidator, CompletesWithPartialCoverageUnderFlakiness) {
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  FlakyFibSource flaky(inner,
                       FlakyConfig{.transient_rate = 0.3, .seed = 23});
  const DatacenterValidator validator(metadata, flaky,
                                      make_trie_verifier_factory());
  const auto summary = validator.run(/*threads=*/4);
  EXPECT_EQ(summary.devices_checked, topology.device_count());
  EXPECT_GT(summary.devices_failed, 0u);
  EXPECT_LT(summary.coverage(), 1.0);
  EXPECT_GT(summary.coverage(), 0.0);
  // Transient failures produce no garbage tables, so no spurious
  // violations appear on the healthy network.
  EXPECT_TRUE(summary.violations.empty());
}

TEST(DatacenterValidator, RetriesRestoreFullCoverage) {
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  const FlakyFibSource flaky(inner,
                             FlakyConfig{.transient_rate = 0.3, .seed = 23});
  ManualFetchClock clock;
  auto config = fast_resilience();
  config.retry.max_attempts = 6;
  const ResilientFibSource hardened(flaky, config, &clock);
  const DatacenterValidator validator(metadata, hardened,
                                      make_trie_verifier_factory());
  const auto summary = validator.run(/*threads=*/4);
  EXPECT_EQ(summary.devices_failed, 0u);
  EXPECT_DOUBLE_EQ(summary.coverage(), 1.0);
  EXPECT_GT(summary.retries, 0u);
  EXPECT_TRUE(summary.violations.empty());
}

}  // namespace
}  // namespace dcv::rcdc
