#include "rcdc/triage.hpp"

#include <gtest/gtest.h>

#include "rcdc/contract_gen.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/trie_verifier.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"

namespace dcv::rcdc {
namespace {

class TriageTest : public testing::Test {
 protected:
  TriageTest() : topology_(topo::build_figure3()), metadata_(topology_) {}

  topo::DeviceId id(const char* name) const {
    return *topology_.find_device(name);
  }

  std::vector<Violation> validate(const char* device) {
    const routing::BgpSimulator sim(topology_, &faults_);
    const SimulatorFibSource fibs(sim);
    const ContractGenerator generator(metadata_);
    TrieVerifier verifier;
    return verifier.check(*fibs.fetch(id(device)),
                          generator.for_device(id(device)), id(device));
  }

  topo::Topology topology_;
  topo::MetadataService metadata_;
  topo::FaultInjector faults_{topology_};
};

TEST_F(TriageTest, OperationallyDownLinkRoutesToCabling) {
  faults_.link_down(*topology_.find_link(id("ToR1"), id("A1")));
  const auto violations = validate("ToR1");
  ASSERT_FALSE(violations.empty());
  const TriageEngine triage(topology_);
  const TriageDecision decision = triage.triage(violations.front());
  EXPECT_EQ(decision.action, RemediationAction::kReplaceCable);
  ASSERT_TRUE(decision.link.has_value());
  EXPECT_EQ(*decision.link, *topology_.find_link(id("ToR1"), id("A1")));
  EXPECT_NE(decision.rationale.find("cabling"), std::string::npos);
}

TEST_F(TriageTest, AdminShutRoutesToUnshut) {
  faults_.bgp_admin_shutdown(*topology_.find_link(id("ToR1"), id("A2")));
  const auto violations = validate("ToR1");
  ASSERT_FALSE(violations.empty());
  const TriageEngine triage(topology_);
  EXPECT_EQ(triage.triage(violations.front()).action,
            RemediationAction::kUnshutAndMonitor);
}

TEST_F(TriageTest, DeviceSoftwareBugEscalates) {
  faults_.device_fault(id("ToR1"),
                       topo::DeviceFaultKind::kRibFibInconsistency);
  const auto violations = validate("ToR1");
  ASSERT_FALSE(violations.empty());
  const TriageEngine triage(topology_);
  // The links toward the missing hops are healthy: no link-level cause, so
  // the error escalates to operators.
  EXPECT_EQ(triage.triage(violations.front()).action,
            RemediationAction::kEscalateToOperator);
}

TEST_F(TriageTest, DecisionCarriesRisk) {
  faults_.device_fault(id("ToR1"),
                       topo::DeviceFaultKind::kRibFibInconsistency);
  const auto violations = validate("ToR1");
  ASSERT_FALSE(violations.empty());
  const TriageEngine triage(topology_);
  // Single-next-hop default route: high risk per §2.6.4.
  EXPECT_EQ(triage.triage(violations.front()).risk, RiskLevel::kHigh);
}

TEST(TriageText, ActionNames) {
  EXPECT_EQ(to_string(RemediationAction::kReplaceCable), "replace-cable");
  EXPECT_EQ(to_string(RemediationAction::kUnshutAndMonitor),
            "unshut-and-monitor");
  EXPECT_EQ(to_string(RemediationAction::kEscalateToOperator),
            "escalate-to-operator");
}

}  // namespace
}  // namespace dcv::rcdc
