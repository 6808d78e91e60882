// The verdict cache, alone and as the monitoring pipeline's incremental
// mode: identity first, then the fingerprint, then a miss; an epoch change
// drops everything; replays carry the current pull's confidence.
#include "rcdc/verdict_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <tuple>

#include "rcdc/pipeline.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"

namespace dcv::rcdc {
namespace {

/// Total order on violations, so lists from different runs compare.
bool violation_order(const Violation& a, const Violation& b) {
  return std::tie(a.device, a.contract.prefix, a.rule_prefix, a.kind,
                  a.actual_next_hops) < std::tie(b.device, b.contract.prefix,
                                                 b.rule_prefix, b.kind,
                                                 b.actual_next_hops);
}

/// Forwards to whichever source is current: a pipeline keeps one
/// FibSource, so tests swap what stands behind it between cycles.
class SwitchableFibSource final : public FibSource {
 public:
  explicit SwitchableFibSource(const FibSource& inner) : inner_(&inner) {}
  void set(const FibSource& inner) { inner_ = &inner; }
  [[nodiscard]] FetchOutcome try_fetch(topo::DeviceId device) const override {
    return inner_->try_fetch(device);
  }

 private:
  const FibSource* inner_;
};

/// A monitoring pipeline in incremental mode with fetch latency off,
/// driven cycle by cycle. Every violation a cycle reports lands in
/// `violations` (sorted); `degraded_alerts` counts the alerts raised at
/// degraded confidence.
struct Monitor {
  Monitor(const topo::MetadataService& metadata, const FibSource& fibs,
          obs::MetricsRegistry* metrics = nullptr)
      : pipeline(metadata, fibs, make_trie_verifier_factory(),
                 PipelineConfig{
                     .puller_workers = 2,
                     .validator_workers = 2,
                     .fetch_latency_min = std::chrono::microseconds(0),
                     .fetch_latency_max = std::chrono::microseconds(0),
                     .time_scale = 0.0,
                     .metrics = metrics}) {
    pipeline.set_alert_sink(
        [this](const Violation& violation, const RiskAssessment& risk) {
          violations.push_back(violation);
          if (risk.degraded_confidence) ++degraded_alerts;
        });
  }

  PipelineStats cycle() {
    violations.clear();
    degraded_alerts = 0;
    const PipelineStats stats = pipeline.run_cycle();
    std::sort(violations.begin(), violations.end(), violation_order);
    return stats;
  }

  MonitoringPipeline pipeline;
  std::vector<Violation> violations;
  std::size_t degraded_alerts = 0;
};

topo::Topology small_fabric() {
  return topo::build_clos(topo::ClosParams{.clusters = 3,
                                           .tors_per_cluster = 3,
                                           .leaves_per_cluster = 4,
                                           .spines_per_plane = 1,
                                           .regional_spines = 4});
}

class IncrementalTest : public testing::Test {
 protected:
  IncrementalTest() : topology_(small_fabric()), metadata_(topology_) {}

  topo::Topology topology_;
  topo::MetadataService metadata_;
};

TEST(Fingerprint, SensitiveToContent) {
  routing::ForwardingTable a;
  a.add(routing::Rule{.prefix = net::Prefix::parse("10.0.0.0/24"),
                      .next_hops = {1, 2}});
  routing::ForwardingTable b = a;
  EXPECT_EQ(fingerprint(a), fingerprint(b));

  b.add(routing::Rule{.prefix = net::Prefix::parse("10.0.0.0/24"),
                      .next_hops = {1}});
  EXPECT_NE(fingerprint(a), fingerprint(b));

  routing::ForwardingTable c;
  c.add(routing::Rule{.prefix = net::Prefix::parse("10.0.0.0/24"),
                      .next_hops = {1, 2},
                      .connected = true});
  EXPECT_NE(fingerprint(a), fingerprint(c));

  EXPECT_NE(fingerprint(routing::ForwardingTable{}), 0u);
}

// The fingerprint is a *semantic* content hash: two equivalent tables whose
// rules or ECMP next-hop sets merely arrived in a different order must
// fingerprint identically (otherwise the incremental validator re-verifies
// unchanged devices), while any real content change must still be seen.
TEST(Fingerprint, InvariantUnderRuleAndHopPermutation) {
  const std::vector<routing::Rule> rules = {
      {.prefix = net::Prefix::parse("10.0.0.0/24"), .next_hops = {1, 2, 3}},
      {.prefix = net::Prefix::parse("10.0.1.0/24"), .next_hops = {4, 5}},
      {.prefix = net::Prefix::parse("10.0.0.0/16"), .next_hops = {6}},
      {.prefix = net::Prefix::parse("0.0.0.0/0"), .next_hops = {7, 8}},
      {.prefix = net::Prefix::parse("192.168.0.0/30"),
       .next_hops = {},
       .connected = true},
  };

  routing::ForwardingTable reference;
  for (const auto& rule : rules) reference.add(rule);
  const std::uint64_t expected = fingerprint(reference);

  std::mt19937_64 rng(2019);
  for (int trial = 0; trial < 32; ++trial) {
    auto shuffled = rules;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    routing::ForwardingTable permuted;
    for (auto& rule : shuffled) {
      std::shuffle(rule.next_hops.begin(), rule.next_hops.end(), rng);
      permuted.add(std::move(rule));
    }
    EXPECT_EQ(fingerprint(permuted), expected);
  }

  // Real changes still change the fingerprint: a hop swapped for another...
  routing::ForwardingTable changed_hop = reference;
  changed_hop.add(routing::Rule{.prefix = net::Prefix::parse("10.0.0.0/24"),
                                .next_hops = {1, 2, 9}});
  EXPECT_NE(fingerprint(changed_hop), expected);
  // ...a hop dropped from the ECMP set...
  routing::ForwardingTable dropped_hop = reference;
  dropped_hop.add(routing::Rule{.prefix = net::Prefix::parse("10.0.1.0/24"),
                                .next_hops = {4}});
  EXPECT_NE(fingerprint(dropped_hop), expected);
  // ...and a hop moved between two rules' sets (totals preserved).
  routing::ForwardingTable moved_hop = reference;
  moved_hop.add(routing::Rule{.prefix = net::Prefix::parse("10.0.0.0/24"),
                              .next_hops = {1, 2}});
  moved_hop.add(routing::Rule{.prefix = net::Prefix::parse("10.0.1.0/24"),
                              .next_hops = {3, 4, 5}});
  EXPECT_NE(fingerprint(moved_hop), expected);
}

/// Serves the inner source's tables rebuilt with the rule insertion order
/// and every ECMP next-hop set freshly permuted on each fetch — the
/// "equivalent table, different arrival order" shape of real pulls.
class PermutingFibSource final : public FibSource {
 public:
  PermutingFibSource(const FibSource& inner, std::uint64_t seed)
      : inner_(&inner), seed_(seed) {}

  [[nodiscard]] FetchOutcome try_fetch(topo::DeviceId device) const override {
    std::mt19937_64 rng(seed_ ^ (0x9E3779B97F4A7C15ull * (device + 1)));
    auto rules = inner_->fetch(device)->rules();
    std::shuffle(rules.begin(), rules.end(), rng);
    routing::ForwardingTable permuted;
    for (auto& rule : rules) {
      std::shuffle(rule.next_hops.begin(), rule.next_hops.end(), rng);
      permuted.add(std::move(rule));
    }
    return FetchOutcome::success(routing::share_fib(std::move(permuted)));
  }

 private:
  const FibSource* inner_;
  std::uint64_t seed_;
};

/// Serves the inner source, except that one device can be made to fail
/// its pull or to come back stale (the same table at degraded confidence).
/// Switch modes between cycles only.
class OutageFibSource final : public FibSource {
 public:
  enum class Mode { kClean, kFail, kStale };

  OutageFibSource(const FibSource& inner, topo::DeviceId device)
      : inner_(&inner), device_(device) {}
  void set(Mode mode) { mode_ = mode; }

  [[nodiscard]] FetchOutcome try_fetch(topo::DeviceId device) const override {
    FetchOutcome out = inner_->try_fetch(device);
    if (device != device_ || mode_ == Mode::kClean) return out;
    if (mode_ == Mode::kFail) {
      return FetchOutcome::failure(FetchErrorKind::kUnreachable);
    }
    out.error = FetchErrorKind::kTimeout;
    out.stale = true;
    return out;
  }

 private:
  const FibSource* inner_;
  topo::DeviceId device_;
  Mode mode_ = Mode::kClean;
};

std::size_t count_on(const std::vector<Violation>& violations,
                     topo::DeviceId device) {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [device](const Violation& v) { return v.device == device; }));
}

TEST(VerdictCache, SameHandleHitsWithoutFingerprinting) {
  obs::MetricsRegistry registry;
  obs::Histogram& prints =
      registry.histogram("dcv_incremental_fingerprint_ns", "");
  routing::ForwardingTable fib;
  fib.add(routing::Rule{.prefix = net::Prefix::parse("10.0.0.0/24"),
                        .next_hops = {1, 2}});
  const routing::FibPtr table = routing::share_fib(std::move(fib));

  VerdictCache cache;
  cache.set_epoch(1, 4);
  const VerdictCache::Lookup miss = cache.lookup(2, table, &prints);
  EXPECT_EQ(miss.violations, nullptr);
  EXPECT_EQ(miss.fingerprint, fingerprint(*table));
  EXPECT_EQ(prints.count(), 1u);

  const std::vector<Violation>& stored =
      cache.store(2, table, miss.fingerprint, {Violation{.device = 2}});
  const VerdictCache::Lookup hit = cache.lookup(2, table, &prints);
  EXPECT_EQ(hit.violations, &stored);  // the cache's own list, not a copy
  EXPECT_EQ(hit.fingerprint, 0u);
  EXPECT_EQ(prints.count(), 1u);
  // Entries are per device.
  EXPECT_EQ(cache.lookup(3, table).violations, nullptr);
}

TEST(VerdictCache, PermutedEquivalentTableHitsByFingerprint) {
  const topo::Topology topology = small_fabric();
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);
  VerdictCache cache;
  cache.set_epoch(1, topology.device_count());
  for (const topo::Device& d : topology.devices()) {
    const routing::FibPtr table = sim.fib_handle(d.id);
    (void)cache.store(d.id, table, fingerprint(*table), {});
  }

  obs::MetricsRegistry registry;
  obs::Histogram& prints =
      registry.histogram("dcv_incremental_fingerprint_ns", "");
  for (const std::uint64_t seed : {7ull, 8ull}) {
    const PermutingFibSource permuted(fibs, seed);
    for (const topo::Device& d : topology.devices()) {
      const routing::FibPtr table = permuted.try_fetch(d.id).table;
      const VerdictCache::Lookup hit = cache.lookup(d.id, table, &prints);
      EXPECT_NE(hit.violations, nullptr) << d.name;
      EXPECT_NE(hit.fingerprint, 0u) << d.name;  // matched by content
      // Adopting the equal object makes its next pull an identity hit.
      cache.adopt(d.id, table);
      EXPECT_EQ(cache.lookup(d.id, table, &prints).fingerprint, 0u);
    }
  }
  EXPECT_EQ(prints.count(), 2 * topology.device_count());
}

TEST(VerdictCache, EpochChangeMissesEverything) {
  const topo::Topology topology = small_fabric();
  const routing::BgpSimulator sim(topology);
  VerdictCache cache;
  cache.set_epoch(1, topology.device_count());
  for (const topo::Device& d : topology.devices()) {
    const routing::FibPtr table = sim.fib_handle(d.id);
    (void)cache.store(d.id, table, fingerprint(*table),
                      {Violation{.device = d.id}});
  }
  cache.set_epoch(1, topology.device_count());  // same epoch: kept
  for (const topo::Device& d : topology.devices()) {
    EXPECT_NE(cache.lookup(d.id, sim.fib_handle(d.id)).violations, nullptr);
  }
  cache.set_epoch(2, topology.device_count());
  for (const topo::Device& d : topology.devices()) {
    EXPECT_EQ(cache.lookup(d.id, sim.fib_handle(d.id)).violations, nullptr);
    EXPECT_TRUE(cache.violations(d.id).empty());
  }
}

// A device whose pull fails is absent from that cycle's verdict, but its
// cached verdict survives: the next pull of the same table replays it.
TEST(VerdictCache, FailedFetchLeavesTheEntryIntact) {
  topo::Topology topology = small_fabric();
  const topo::MetadataService metadata(topology);
  topo::FaultInjector faults(topology);
  const topo::DeviceId tor =
      topology.devices_with_role(topo::DeviceRole::kTor)[0];
  faults.device_fault(tor, topo::DeviceFaultKind::kRejectDefaultRoute);
  const routing::BgpSimulator sim(topology, &faults);
  const SimulatorFibSource inner(sim);
  OutageFibSource fibs(inner, tor);
  obs::MetricsRegistry registry;
  Monitor monitor(metadata, fibs, &registry);
  const obs::Histogram& prints =
      registry.histogram("dcv_incremental_fingerprint_ns", "");

  (void)monitor.cycle();
  const std::vector<Violation> expected = monitor.violations;
  ASSERT_GT(count_on(expected, tor), 0u);

  fibs.set(OutageFibSource::Mode::kFail);
  const PipelineStats outage = monitor.cycle();
  EXPECT_EQ(outage.devices_failed, 1u);
  EXPECT_EQ(outage.devices_revalidated, 0u);
  EXPECT_EQ(count_on(monitor.violations, tor), 0u);

  fibs.set(OutageFibSource::Mode::kClean);
  const std::uint64_t prints_before = prints.count();
  const PipelineStats back = monitor.cycle();
  EXPECT_EQ(back.devices_failed, 0u);
  EXPECT_EQ(back.devices_revalidated, 0u);
  EXPECT_EQ(prints.count(), prints_before);  // same handle: identity hit
  EXPECT_EQ(monitor.violations, expected);
}

// A replayed verdict is reported at the confidence of the pull that
// replayed it, not of the pull that first produced it.
TEST(VerdictCache, DegradedReplayCarriesTheCurrentPullsFlag) {
  topo::Topology topology = small_fabric();
  const topo::MetadataService metadata(topology);
  topo::FaultInjector faults(topology);
  const topo::DeviceId tor =
      topology.devices_with_role(topo::DeviceRole::kTor)[0];
  faults.device_fault(tor, topo::DeviceFaultKind::kRejectDefaultRoute);
  const routing::BgpSimulator sim(topology, &faults);
  const SimulatorFibSource inner(sim);
  OutageFibSource fibs(inner, tor);
  Monitor monitor(metadata, fibs);

  const PipelineStats clean = monitor.cycle();
  const std::size_t on_tor = count_on(monitor.violations, tor);
  ASSERT_GT(on_tor, 0u);
  EXPECT_EQ(clean.violations_degraded, 0u);
  EXPECT_EQ(monitor.degraded_alerts, 0u);

  fibs.set(OutageFibSource::Mode::kStale);
  const PipelineStats stale = monitor.cycle();
  EXPECT_EQ(stale.devices_stale, 1u);
  EXPECT_EQ(stale.devices_revalidated, 0u);
  EXPECT_EQ(stale.violations_degraded, on_tor);
  EXPECT_EQ(monitor.degraded_alerts, on_tor);

  fibs.set(OutageFibSource::Mode::kClean);
  const PipelineStats fresh = monitor.cycle();
  EXPECT_EQ(fresh.devices_revalidated, 0u);
  EXPECT_EQ(fresh.violations_degraded, 0u);
  EXPECT_EQ(monitor.degraded_alerts, 0u);
}

TEST_F(IncrementalTest, FirstCycleValidatesEverything) {
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource fibs(sim);
  Monitor monitor(metadata_, fibs);
  const PipelineStats stats = monitor.cycle();
  EXPECT_EQ(stats.devices, topology_.device_count());
  EXPECT_EQ(stats.devices_revalidated, stats.devices);
  EXPECT_TRUE(monitor.violations.empty());
}

// Acceptance for the fingerprint bugfix: a second cycle that pulls
// permuted-but-equivalent tables (shuffled rule arrival order, shuffled
// ECMP next-hop sets) must not re-validate a single device.
TEST_F(IncrementalTest, PermutedEquivalentFibIsNotRevalidated) {
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource inner(sim);
  const PermutingFibSource permuted7(inner, 7);
  const PermutingFibSource permuted8(inner, 8);
  SwitchableFibSource fibs(inner);
  Monitor monitor(metadata_, fibs);
  const PipelineStats first = monitor.cycle();
  ASSERT_EQ(first.devices_revalidated, first.devices);
  const std::vector<Violation> expected = monitor.violations;

  for (const PermutingFibSource* permuted : {&permuted7, &permuted8}) {
    fibs.set(*permuted);
    const PipelineStats cycle = monitor.cycle();
    EXPECT_EQ(cycle.devices_revalidated, 0u);
    EXPECT_EQ(cycle.contracts_checked, 0u);
    EXPECT_EQ(monitor.violations, expected);
  }
}

// The identity shortcut must not be the only way to skip: a source that
// serves a fresh handle with equal content each cycle is fingerprinted
// every cycle, and the fingerprint still spares verify.
TEST_F(IncrementalTest, PipelineSkipsFreshEqualHandlesByFingerprint) {
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource inner(sim);
  const PermutingFibSource permuted(inner, 7);
  obs::MetricsRegistry registry;
  Monitor monitor(metadata_, permuted, &registry);
  const obs::Histogram& prints =
      registry.histogram("dcv_incremental_fingerprint_ns", "");
  const PipelineStats cold = monitor.cycle();
  ASSERT_EQ(cold.devices_revalidated, cold.devices);
  const PipelineStats warm = monitor.cycle();
  EXPECT_EQ(prints.count(), 2 * cold.devices);
  EXPECT_EQ(warm.devices_revalidated, 0u);
  EXPECT_EQ(warm.devices_skipped, warm.devices);
  EXPECT_EQ(warm.contracts_checked, 0u);
}

TEST_F(IncrementalTest, UnchangedNetworkRevalidatesNothing) {
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource fibs(sim);
  Monitor monitor(metadata_, fibs);
  (void)monitor.cycle();
  const PipelineStats second = monitor.cycle();
  EXPECT_EQ(second.devices_revalidated, 0u);
  EXPECT_EQ(second.contracts_checked, 0u);
  EXPECT_TRUE(monitor.violations.empty());
}

TEST_F(IncrementalTest, FaultRevalidatesOnlyAffectedDevices) {
  topo::FaultInjector faults(topology_);
  routing::BgpSimulator sim(topology_, &faults);
  const SimulatorFibSource fibs(sim);
  Monitor monitor(metadata_, fibs);
  (void)monitor.cycle();

  // One link down: routing changes ripple to a subset of devices only.
  faults.link_down(
      *topology_.find_link(topology_.tors_in_cluster(0)[0],
                           topology_.leaves_in_cluster(0)[0]));
  ASSERT_GT(sim.reconverge(), 0);
  const PipelineStats incremental = monitor.cycle();

  EXPECT_GT(incremental.devices_revalidated, 0u);
  EXPECT_LT(incremental.devices_revalidated, incremental.devices);
  EXPECT_FALSE(monitor.violations.empty());

  // The merged picture matches a from-scratch full validation.
  const DatacenterValidator full(metadata_, fibs,
                                 make_trie_verifier_factory());
  auto expected = full.run(2).violations;
  std::sort(expected.begin(), expected.end(), violation_order);
  EXPECT_EQ(monitor.violations, expected);
}

TEST_F(IncrementalTest, RepairConvergesBackToClean) {
  topo::FaultInjector faults(topology_);
  faults.random_link_failures(2);
  routing::BgpSimulator sim(topology_, &faults);
  const SimulatorFibSource fibs(sim);
  Monitor monitor(metadata_, fibs);
  (void)monitor.cycle();
  EXPECT_FALSE(monitor.violations.empty());

  faults.reset();
  (void)sim.reconverge();
  (void)monitor.cycle();
  EXPECT_TRUE(monitor.violations.empty());
}

// A fault repaired before the next cycle leaves the touched devices with
// new table objects holding their old content: the cycle replays them by
// fingerprint and adopts the new objects, so the cycle after that matches
// them by identity and fingerprints nothing.
TEST_F(IncrementalTest, RepairedTablesAreAdoptedForIdentityHits) {
  topo::FaultInjector faults(topology_);
  routing::BgpSimulator sim(topology_, &faults);
  const SimulatorFibSource fibs(sim);
  obs::MetricsRegistry registry;
  Monitor monitor(metadata_, fibs, &registry);
  const obs::Histogram& prints =
      registry.histogram("dcv_incremental_fingerprint_ns", "");
  (void)monitor.cycle();

  faults.device_fault(topology_.devices_with_role(topo::DeviceRole::kTor)[0],
                      topo::DeviceFaultKind::kRejectDefaultRoute);
  ASSERT_GT(sim.reconverge(), 0);
  faults.repair(0);
  ASSERT_GT(sim.reconverge(), 0);

  const std::uint64_t cold_prints = prints.count();
  const PipelineStats repaired = monitor.cycle();
  const std::uint64_t matched = prints.count() - cold_prints;
  EXPECT_GT(matched, 0u);
  EXPECT_EQ(repaired.devices_revalidated, 0u);
  EXPECT_TRUE(monitor.violations.empty());

  const PipelineStats steady = monitor.cycle();
  EXPECT_EQ(prints.count() - cold_prints, matched);
  EXPECT_EQ(steady.devices_revalidated, 0u);
}

// A new pipeline, or a new plan epoch in the same one, revalidates every
// device: no verdict outlives the cache that holds it or its contracts.
TEST_F(IncrementalTest, ResetForcesFullRevalidation) {
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource fibs(sim);
  {
    Monitor monitor(metadata_, fibs);
    (void)monitor.cycle();
    ASSERT_EQ(monitor.cycle().devices_revalidated, 0u);
  }
  Monitor fresh(metadata_, fibs);
  EXPECT_EQ(fresh.cycle().devices_revalidated, topology_.device_count());
  ASSERT_EQ(fresh.cycle().devices_revalidated, 0u);

  topology_.set_asn(topology_.devices_with_role(topo::DeviceRole::kTor)[0],
                    topo::Asn{65099});
  EXPECT_EQ(fresh.cycle().devices_revalidated, topology_.device_count());
}

}  // namespace
}  // namespace dcv::rcdc
