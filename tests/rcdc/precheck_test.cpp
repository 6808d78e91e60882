// Tests of the §2.7 pre-check workflow (Figure 7), including the
// §2.6.2 "Migrations" root cause: decommissioned and new leaf devices
// configured with the same ASN, which silently suppresses specific-route
// announcements between clusters.
#include "rcdc/precheck.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "topology/clos_builder.hpp"

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

}  // namespace
}  // namespace dcv::rcdc
