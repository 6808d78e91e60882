// Contract-plan cache semantics: one immutable plan per topology epoch,
// shared by pointer; expected-topology mutations (and only those) rebuild
// it, and a plan already handed out never changes underneath its holder.
#include <gtest/gtest.h>

#include <algorithm>

#include "rcdc/contract_gen.hpp"
#include "rcdc/pipeline.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"

namespace dcv::rcdc {
namespace {

TEST(ContractPlanCache, SameEpochReturnsSamePlan) {
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const ContractGenerator generator(metadata);
  const ContractPlanPtr first = generator.plan();
  const ContractPlanPtr second = generator.plan();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, second);  // pointer identity: built once, shared
  EXPECT_EQ(first->epoch(), metadata.epoch());
}

TEST(ContractPlanCache, StateChangesDoNotInvalidate) {
  // Contracts derive from the expected topology only (§2.4): link or BGP
  // state flips must not bump the epoch, so the cached plan survives fault
  // injection untouched.
  auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const ContractGenerator generator(metadata);
  const ContractPlanPtr before = generator.plan();
  const std::uint64_t epoch_before = topology.epoch();
  topology.set_link_state(0, topo::LinkState::kDown);
  topology.set_bgp_state(1, topo::BgpSessionState::kDown);
  topology.shut_all_sessions_of(0);
  EXPECT_EQ(topology.epoch(), epoch_before);
  EXPECT_EQ(generator.plan(), before);
  topology.clear_faults();
  EXPECT_EQ(generator.plan(), before);
}

TEST(ContractPlanCache, EpochBumpRebuildsAndOldPlanStaysIntact) {
  auto topology = topo::build_figure3();
  const topo::MetadataService* metadata = nullptr;
  topo::MetadataService first_metadata(topology);
  metadata = &first_metadata;
  const ContractGenerator generator(*metadata);

  const ContractPlanPtr old_plan = generator.plan();
  const std::uint64_t old_epoch = old_plan->epoch();
  const std::size_t old_total = old_plan->total_contracts();
  const auto tor = *topology.find_device("ToR1");
  const std::size_t old_tor_contracts =
      old_plan->contracts_for(tor).size();

  // An expected-topology mutation: a new hosted prefix adds one specific
  // contract to (at least) every other ToR and every leaf/spine.
  topology.add_hosted_prefix(*topology.find_device("ToR2"),
                             net::Prefix::parse("10.99.0.0/24"));
  EXPECT_GT(topology.epoch(), old_epoch);
  // Metadata snapshots prefix facts at construction; rebuild it the way a
  // control plane would after reconfiguration.
  topo::MetadataService new_metadata(topology);
  const ContractGenerator new_generator(new_metadata);

  const ContractPlanPtr new_plan = new_generator.plan();
  EXPECT_NE(new_plan, old_plan);
  EXPECT_EQ(new_plan->epoch(), topology.epoch());
  EXPECT_GT(new_plan->total_contracts(), old_total);
  EXPECT_GT(new_plan->contracts_for(tor).size(), old_tor_contracts);

  // The old plan is immutable: a holder mid-cycle keeps seeing exactly the
  // contracts it captured, regardless of the rebuild.
  EXPECT_EQ(old_plan->epoch(), old_epoch);
  EXPECT_EQ(old_plan->total_contracts(), old_total);
  EXPECT_EQ(old_plan->contracts_for(tor).size(), old_tor_contracts);
}

TEST(ContractPlanCache, PlanMatchesForDeviceAndIsTrieWalkOrdered) {
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const ContractGenerator generator(metadata);
  const ContractPlanPtr plan = generator.plan();

  std::size_t total = 0;
  for (const topo::Device& device : topology.devices()) {
    const auto span = plan->contracts_for(device.id);
    auto unordered = generator.for_device(device.id);
    ASSERT_EQ(span.size(), unordered.size()) << device.name;
    total += span.size();

    // Same contract multiset as the per-device generator...
    std::vector<Contract> from_plan(span.begin(), span.end());
    const auto key = [](const Contract& a, const Contract& b) {
      if (a.kind != b.kind) return a.kind < b.kind;
      return a.prefix < b.prefix;
    };
    std::sort(from_plan.begin(), from_plan.end(), key);
    std::sort(unordered.begin(), unordered.end(), key);
    EXPECT_EQ(from_plan, unordered) << device.name;

    // ...but stored defaults-first, then ascending by prefix.
    bool seen_specific = false;
    const net::Prefix* previous = nullptr;
    for (const Contract& contract : span) {
      if (contract.kind == ContractKind::kDefault) {
        EXPECT_FALSE(seen_specific)
            << device.name << ": default after specific";
        continue;
      }
      if (seen_specific) {
        ASSERT_NE(previous, nullptr);
        EXPECT_LE(*previous, contract.prefix) << device.name;
      }
      seen_specific = true;
      previous = &contract.prefix;
    }
  }
  EXPECT_EQ(plan->total_contracts(), total);
  // Out-of-range ids answer with an empty span, never UB.
  EXPECT_TRUE(plan->contracts_for(static_cast<topo::DeviceId>(
                                      topology.device_count() + 7))
                  .empty());
}

TEST(ContractPlanCache, IncrementalPipelineRevalidatesAllAfterEpochBump) {
  auto topology = topo::build_figure3();
  topo::MetadataService metadata(topology);
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource fibs(sim);

  MonitoringPipeline pipeline(metadata, fibs, make_trie_verifier_factory(),
                              PipelineConfig{.puller_workers = 2,
                                             .validator_workers = 2,
                                             .time_scale = 0.0});
  const auto first = pipeline.run_cycle();
  EXPECT_EQ(first.devices_revalidated, first.devices);
  const auto second = pipeline.run_cycle();
  EXPECT_EQ(second.devices_revalidated, 0u);

  // Expected-topology change: every cached verdict may now be wrong, so
  // the whole fleet revalidates even though no FIB content changed.
  topology.set_asn(*topology.find_device("ToR1"), topo::Asn{65099});
  const auto third = pipeline.run_cycle();
  EXPECT_EQ(third.devices_revalidated, third.devices);
  EXPECT_EQ(third.violations, second.violations);
}

}  // namespace
}  // namespace dcv::rcdc
