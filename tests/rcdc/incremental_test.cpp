#include "rcdc/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "rcdc/pipeline.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"

namespace dcv::rcdc {
namespace {

class IncrementalTest : public testing::Test {
 protected:
  IncrementalTest()
      : topology_(topo::build_clos(topo::ClosParams{.clusters = 3,
                                                    .tors_per_cluster = 3,
                                                    .leaves_per_cluster = 4,
                                                    .spines_per_plane = 1,
                                                    .regional_spines = 4})),
        metadata_(topology_) {}

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

TEST_F(IncrementalTest, FirstCycleValidatesEverything) {
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource fibs(sim);
  IncrementalValidator validator(metadata_, make_trie_verifier_factory());
  const auto result = validator.run_cycle(fibs, 2);
  EXPECT_EQ(result.devices_revalidated, result.devices_total);
  EXPECT_TRUE(result.violations.empty());
}

// Acceptance for the fingerprint bugfix: a second cycle that pulls
// permuted-but-equivalent tables (shuffled rule arrival order, shuffled
// ECMP next-hop sets) must not re-validate a single device.
TEST_F(IncrementalTest, PermutedEquivalentFibIsNotRevalidated) {
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource fibs(sim);
  IncrementalValidator validator(metadata_, make_trie_verifier_factory());
  const auto first = validator.run_cycle(fibs, 2);
  ASSERT_EQ(first.devices_revalidated, first.devices_total);

  for (const std::uint64_t seed : {7ull, 8ull}) {
    const PermutingFibSource permuted(fibs, seed);
    const auto cycle = validator.run_cycle(permuted, 2);
    EXPECT_EQ(cycle.devices_revalidated, 0u);
    EXPECT_EQ(cycle.contracts_checked, 0u);
    EXPECT_EQ(cycle.violations, first.violations);
  }
}

// The monitoring pipeline's identity shortcut must not be the only way to
// skip: a source that serves a fresh handle with equal content each cycle
// is fingerprinted every cycle, and the fingerprint still spares verify.
TEST_F(IncrementalTest, PipelineSkipsFreshEqualHandlesByFingerprint) {
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource inner(sim);
  const PermutingFibSource permuted(inner, 7);
  obs::MetricsRegistry registry;
  MonitoringPipeline pipeline(
      metadata_, permuted, make_trie_verifier_factory(),
      PipelineConfig{.puller_workers = 2,
                     .validator_workers = 2,
                     .fetch_latency_min = std::chrono::microseconds(0),
                     .fetch_latency_max = std::chrono::microseconds(0),
                     .time_scale = 0.0,
                     .metrics = &registry});
  const obs::Histogram& prints =
      registry.histogram("dcv_incremental_fingerprint_ns", "");
  const auto cold = pipeline.run_cycle();
  ASSERT_EQ(cold.devices_revalidated, cold.devices);
  const auto warm = pipeline.run_cycle();
  EXPECT_EQ(prints.count(), 2 * cold.devices);
  EXPECT_EQ(warm.devices_revalidated, 0u);
  EXPECT_EQ(warm.devices_skipped, warm.devices);
  EXPECT_EQ(warm.contracts_checked, 0u);
}

TEST_F(IncrementalTest, UnchangedNetworkRevalidatesNothing) {
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource fibs(sim);
  IncrementalValidator validator(metadata_, make_trie_verifier_factory());
  (void)validator.run_cycle(fibs, 2);
  const auto second = validator.run_cycle(fibs, 2);
  EXPECT_EQ(second.devices_revalidated, 0u);
  EXPECT_EQ(second.contracts_checked, 0u);
  EXPECT_TRUE(second.violations.empty());
}

TEST_F(IncrementalTest, FaultRevalidatesOnlyAffectedDevices) {
  IncrementalValidator validator(metadata_, make_trie_verifier_factory());
  {
    const routing::BgpSimulator sim(topology_);
    const SimulatorFibSource fibs(sim);
    (void)validator.run_cycle(fibs, 2);
  }

  // One link down: routing changes ripple to a subset of devices only.
  topo::FaultInjector faults(topology_);
  faults.link_down(
      *topology_.find_link(topology_.tors_in_cluster(0)[0],
                           topology_.leaves_in_cluster(0)[0]));
  const routing::BgpSimulator sim(topology_, &faults);
  const SimulatorFibSource fibs(sim);
  const auto incremental = validator.run_cycle(fibs, 2);

  EXPECT_GT(incremental.devices_revalidated, 0u);
  EXPECT_LT(incremental.devices_revalidated, incremental.devices_total);
  EXPECT_FALSE(incremental.violations.empty());

  // The merged picture matches a from-scratch full validation.
  const DatacenterValidator full(metadata_, fibs,
                                 make_trie_verifier_factory());
  auto expected = full.run(2).violations;
  auto actual = incremental.violations;
  const auto order = [](const Violation& a, const Violation& b) {
    if (a.device != b.device) return a.device < b.device;
    if (a.contract.prefix != b.contract.prefix) {
      return a.contract.prefix < b.contract.prefix;
    }
    return a.rule_prefix < b.rule_prefix;
  };
  std::sort(expected.begin(), expected.end(), order);
  std::sort(actual.begin(), actual.end(), order);
  EXPECT_EQ(expected, actual);
}

TEST_F(IncrementalTest, RepairConvergesBackToClean) {
  IncrementalValidator validator(metadata_, make_trie_verifier_factory());
  topo::FaultInjector faults(topology_);
  faults.random_link_failures(2);
  {
    const routing::BgpSimulator sim(topology_, &faults);
    const SimulatorFibSource fibs(sim);
    EXPECT_FALSE(validator.run_cycle(fibs, 2).violations.empty());
  }
  faults.reset();
  const routing::BgpSimulator sim(topology_, &faults);
  const SimulatorFibSource fibs(sim);
  const auto result = validator.run_cycle(fibs, 2);
  EXPECT_TRUE(result.violations.empty());
}

TEST_F(IncrementalTest, ResetForcesFullRevalidation) {
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource fibs(sim);
  IncrementalValidator validator(metadata_, make_trie_verifier_factory());
  (void)validator.run_cycle(fibs, 2);
  validator.reset();
  EXPECT_EQ(validator.run_cycle(fibs, 2).devices_revalidated,
            topology_.device_count());
}

}  // namespace
}  // namespace dcv::rcdc
