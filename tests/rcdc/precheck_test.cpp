// Tests of the §2.7 pre-check workflow (Figure 7), including the
// §2.6.2 "Migrations" root cause: decommissioned and new leaf devices
// configured with the same ASN, which silently suppresses specific-route
// announcements between clusters.
#include "rcdc/precheck.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "rcdc/contract_gen.hpp"
#include "topology/clos_builder.hpp"
#include "topology/metadata.hpp"

namespace dcv::rcdc {
namespace {

class PrecheckTest : public testing::Test {
 protected:
  PrecheckTest() : topology_(topo::build_figure3()) {}

  topo::DeviceId id(const char* name) const {
    return *topology_.find_device(name);
  }

  topo::Topology topology_;
};

TEST_F(PrecheckTest, HarmlessChangeIsApproved) {
  const PrecheckPipeline pipeline(topology_);
  // Renumbering a ToR's ASN to another value unique in its cluster leaves
  // forwarding intact.
  const auto result =
      pipeline.check(reassign_asn("renumber ToR1", id("ToR1"), 64900));
  EXPECT_TRUE(result.approved);
  EXPECT_EQ(result.baseline_violations, 0u);
  EXPECT_EQ(result.post_change_violations, 0u);
}

TEST_F(PrecheckTest, MigrationAsnCollisionIsRejected) {
  const PrecheckPipeline pipeline(topology_);
  // The §2.6.2 migration misconfiguration: cluster B's leaves get cluster
  // A's leaf ASN. Loop prevention then hides each cluster's specific
  // routes from the other; traffic still flows via default routes, but the
  // specific contracts break — exactly what the paper describes.
  std::vector<NetworkChange> rollout;
  rollout.push_back(NetworkChange{
      .description = "migrate cluster B onto cluster A's leaf ASN",
      .apply = [&](topo::Topology& emulated) {
        for (const topo::DeviceId leaf : emulated.leaves_in_cluster(1)) {
          emulated.set_asn(leaf, emulated.device(
                                     emulated.leaves_in_cluster(0)[0])
                                     .asn);
        }
      }});
  const auto results = pipeline.check_rollout(rollout);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].approved);
  EXPECT_GT(results[0].introduced.size(), 0u);
  // The introduced violations are specific-contract failures: "the
  // top-of-rack switches violated all the specific contracts. There were
  // no reachability issues because the traffic ... was following default
  // routes and reaching the correct destination."
  for (const Violation& v : results[0].introduced) {
    EXPECT_EQ(v.contract.kind, ContractKind::kSpecific)
        << v.contract.prefix.to_string();
    EXPECT_EQ(v.kind, ViolationKind::kSpecificViaDefaultRoute)
        << v.contract.prefix.to_string();
  }
}

TEST_F(PrecheckTest, ShuttingRedundantLinkIsCaught) {
  const PrecheckPipeline pipeline(topology_);
  const auto link = *topology_.find_link(id("ToR1"), id("A1"));
  const auto result = pipeline.check(
      shut_links("maintenance: shut ToR1-A1", {link}));
  // Intent requires the full redundant set; the shut session degrades
  // ToR1's ECMP fan-out, so the precheck flags it for a maintenance window
  // decision rather than silently passing it.
  EXPECT_FALSE(result.approved);
  EXPECT_GT(result.introduced.size(), 0u);
}

TEST_F(PrecheckTest, PreexistingDriftIsNotChargedToTheChange) {
  // Break the network first; a no-op change must still be approved.
  topo::apply_figure3_failures(topology_);
  const PrecheckPipeline pipeline(topology_);
  const auto result = pipeline.check(NetworkChange{
      .description = "no-op", .apply = [](topo::Topology&) {}});
  EXPECT_GT(result.baseline_violations, 0u);
  EXPECT_EQ(result.post_change_violations, result.baseline_violations);
  EXPECT_TRUE(result.approved);
}

TEST_F(PrecheckTest, RolloutStopsAtFirstRejection) {
  const PrecheckPipeline pipeline(topology_);
  std::vector<NetworkChange> rollout;
  rollout.push_back(NetworkChange{.description = "ok",
                                  .apply = [](topo::Topology&) {}});
  rollout.push_back(shut_links(
      "bad", {*topology_.find_link(id("ToR1"), id("A1"))}));
  rollout.push_back(NetworkChange{.description = "never reached",
                                  .apply = [](topo::Topology&) {}});
  const auto results = pipeline.check_rollout(rollout);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].approved);
  EXPECT_FALSE(results[1].approved);
}

// The warm serving session must be semantically indistinguishable from
// the cold clone-per-check pipeline — same verdicts, same counts, same
// introduced violations — while revalidating only the diverged devices.
class PrecheckSessionTest : public PrecheckTest {
 protected:
  static void expect_same(const PrecheckResult& warm,
                          const PrecheckResult& cold) {
    EXPECT_EQ(warm.approved, cold.approved) << warm.description;
    EXPECT_EQ(warm.baseline_violations, cold.baseline_violations);
    EXPECT_EQ(warm.post_change_violations, cold.post_change_violations);
    ASSERT_EQ(warm.introduced.size(), cold.introduced.size());
    for (const Violation& violation : cold.introduced) {
      EXPECT_NE(std::find(warm.introduced.begin(), warm.introduced.end(),
                          violation),
                warm.introduced.end());
    }
  }
};

TEST_F(PrecheckSessionTest, MatchesThePipelineVerdictForVerdict) {
  const PrecheckPipeline pipeline(topology_);
  PrecheckSession session(topology_);
  const std::vector<NetworkChange> probes = {
      reassign_asn("renumber ToR1", id("ToR1"), 64900),
      shut_links("shut ToR1-A1", {*topology_.find_link(id("ToR1"), id("A1"))}),
      NetworkChange{.description = "no-op", .apply = [](topo::Topology&) {}},
  };
  for (const NetworkChange& change : probes) {
    expect_same(session.check(change), pipeline.check(change));
  }
}

TEST_F(PrecheckSessionTest, ChecksAreIndependentDespiteTheSharedEmulator) {
  PrecheckSession session(topology_);
  const auto bad = shut_links(
      "shut", {*topology_.find_link(id("ToR1"), id("A1"))});
  const auto good = reassign_asn("renumber", id("ToR1"), 64900);

  EXPECT_FALSE(session.check(bad).approved);
  // The rejected change must have been rolled back: the same good change
  // still sees the pristine baseline.
  const auto after = session.check(good);
  EXPECT_TRUE(after.approved);
  EXPECT_EQ(after.baseline_violations, 0u);
  EXPECT_FALSE(session.check(bad).approved);  // and the bad one still fails
  EXPECT_EQ(session.checks_run(), 3u);
}

TEST_F(PrecheckSessionTest, BatchResultsEqualIndividualChecks) {
  PrecheckSession batched(topology_);
  PrecheckSession individual(topology_);
  const std::vector<NetworkChange> changes = {
      reassign_asn("renumber ToR1", id("ToR1"), 64900),
      shut_links("shut ToR1-A1", {*topology_.find_link(id("ToR1"), id("A1"))}),
      reassign_asn("renumber ToR3", id("ToR3"), 64901),
  };
  const auto batch = batched.check_batch(changes);
  ASSERT_EQ(batch.size(), changes.size());
  for (std::size_t i = 0; i < changes.size(); ++i) {
    expect_same(batch[i], individual.check(changes[i]));
  }
  EXPECT_TRUE(batch[0].approved);
  EXPECT_FALSE(batch[1].approved);
  EXPECT_TRUE(batch[2].approved);
}

TEST_F(PrecheckSessionTest, RevalidatesOnlyDivergedDevices) {
  PrecheckSession session(topology_);
  // A local ASN renumber leaves most FIBs fingerprint-identical; the
  // session must skip those devices rather than revalidating the fabric.
  (void)session.check(reassign_asn("renumber ToR1", id("ToR1"), 64900));
  EXPECT_GT(session.devices_skipped(), 0u);
  EXPECT_LT(session.devices_revalidated(),
            session.devices_revalidated() + session.devices_skipped());
}

TEST_F(PrecheckSessionTest, ThrowingChangeReportsErrorAndRecovers) {
  PrecheckSession session(topology_);
  const NetworkChange broken{
      .description = "explodes",
      .apply = [](topo::Topology&) { throw std::runtime_error("bad plan"); }};
  const auto result = session.check(broken);
  EXPECT_FALSE(result.approved);
  EXPECT_NE(result.error.find("bad plan"), std::string::npos);
  // The session survives and still answers correctly.
  EXPECT_TRUE(
      session.check(reassign_asn("renumber", id("ToR1"), 64900)).approved);
}

TEST_F(PrecheckSessionTest, ShapeChangingChangesAreRefused) {
  PrecheckSession session(topology_);
  const NetworkChange grow{
      .description = "add a device",
      .apply = [](topo::Topology& emulated) {
        emulated.add_device("intruder", topo::DeviceRole::kLeaf, 65432);
      }};
  const auto result = session.check(grow);
  EXPECT_FALSE(result.approved);
  EXPECT_NE(result.error.find("shape"), std::string::npos);
  EXPECT_TRUE(
      session.check(reassign_asn("renumber", id("ToR1"), 64900)).approved);
}

TEST_F(PrecheckSessionTest, PreexistingDriftStaysWithTheBaseline) {
  topo::apply_figure3_failures(topology_);
  PrecheckSession session(topology_);
  EXPECT_GT(session.baseline_violations(), 0u);
  const auto result = session.check(NetworkChange{
      .description = "no-op", .apply = [](topo::Topology&) {}});
  EXPECT_TRUE(result.approved);
  EXPECT_EQ(result.post_change_violations, result.baseline_violations);
}

// A 3-cluster fabric; 8 ToRs per cluster is dcv_topogen's default.
topo::Topology three_cluster_fabric(std::uint32_t tors_per_cluster = 8) {
  return topo::build_clos(topo::ClosParams{.clusters = 3,
                                           .tors_per_cluster = tors_per_cluster,
                                           .leaves_per_cluster = 4,
                                           .spines_per_plane = 2,
                                           .regional_spines = 4});
}

NetworkChange down_link(std::string description, topo::LinkId link) {
  return NetworkChange{.description = std::move(description),
                       .apply = [link](topo::Topology& topology) {
                         topology.set_link_state(link, topo::LinkState::kDown);
                       }};
}

// The delta recheck and the undo-log rollback answer exactly what the cold
// clone-per-check pipeline answers, introduced violations in order, for
// every single-link shut and down of the fabric, checked back to back.
TEST(PrecheckSessionFabric, EveryLinkShutAndDownMatchesThePipeline) {
  const topo::Topology topology = three_cluster_fabric();
  const PrecheckPipeline pipeline(topology);
  PrecheckSession session(topology);
  for (topo::LinkId link = 0; link < topology.link_count(); ++link) {
    for (const NetworkChange& change :
         {shut_links("shut " + std::to_string(link), {link}),
          down_link("down " + std::to_string(link), link)}) {
      const PrecheckResult warm = session.check(change);
      const PrecheckResult cold = pipeline.check(change);
      EXPECT_EQ(warm.approved, cold.approved) << change.description;
      EXPECT_EQ(warm.baseline_violations, cold.baseline_violations)
          << change.description;
      EXPECT_EQ(warm.post_change_violations, cold.post_change_violations)
          << change.description;
      EXPECT_EQ(warm.introduced, cold.introduced) << change.description;
    }
  }
  EXPECT_EQ(session.checks_run(), 2 * topology.link_count());
}

// One ToR-leaf shut touches few rules of each divergent device, so the
// session rechecks exactly the contracts a changed rule overlaps — a
// small share of the contracts on the divergent devices. The shut ToR's
// own default route changes, which touches all of its contracts, so the
// share falls as the fabric grows: 56 of 797 contracts (7.0%) at 8 ToRs
// per cluster, 104 of 2,741 (3.8%) at 16.
TEST(PrecheckSessionFabric, ToRLeafShutRechecksOnlyTouchedContracts) {
  const topo::Topology topology = three_cluster_fabric(16);
  const topo::LinkId link = *topology.find_link(
      topology.tors_in_cluster(1)[2], topology.leaves_in_cluster(1)[0]);
  PrecheckSession session(topology);
  (void)session.check(shut_links("shut ToR-leaf", {link}));

  // The expected counts, from two cold emulations and a brute-force rule
  // comparison.
  topo::Topology shut = topology;
  shut.set_bgp_state(link, topo::BgpSessionState::kAdminShutdown);
  const routing::BgpSimulator before(topology);
  const routing::BgpSimulator after(shut);
  const topo::MetadataService metadata(topology);
  const ContractPlanPtr plan = ContractGenerator(metadata).plan();
  std::size_t divergent = 0;
  std::size_t divergent_contracts = 0;
  std::size_t touched = 0;
  for (const topo::Device& device : topology.devices()) {
    const routing::ForwardingTable& old_fib = before.fib(device.id);
    const routing::ForwardingTable& new_fib = after.fib(device.id);
    if (old_fib == new_fib) continue;
    ++divergent;
    std::vector<net::Prefix> changed;
    for (const auto* fib : {&old_fib, &new_fib}) {
      for (const routing::Rule& rule : fib->rules()) {
        const routing::Rule* a = old_fib.find(rule.prefix);
        const routing::Rule* b = new_fib.find(rule.prefix);
        if (a == nullptr || b == nullptr || *a != *b) {
          changed.push_back(rule.prefix);
        }
      }
    }
    for (const Contract& contract : plan->contracts_for(device.id)) {
      ++divergent_contracts;
      touched += std::any_of(changed.begin(), changed.end(),
                             [&contract](const net::Prefix& prefix) {
                               return contract.kind == ContractKind::kDefault
                                          ? prefix.is_default()
                                          : prefix.overlaps(contract.prefix);
                             });
    }
  }
  EXPECT_EQ(session.devices_revalidated(), divergent);
  EXPECT_EQ(session.contracts_rechecked(), touched);
  EXPECT_GT(touched, 0u);
  EXPECT_LT(20 * touched, divergent_contracts);  // below 5%
}

}  // namespace
}  // namespace dcv::rcdc
