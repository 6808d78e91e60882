// Integration test reproducing §2.4.4 "Contracts in Action": the four link
// failures of Figure 3 produce exactly the contract violations the paper
// walks through.
#include <gtest/gtest.h>

#include <set>

#include "rcdc/contract_gen.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/trie_verifier.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"

namespace dcv::rcdc {
namespace {

class ContractsInAction : public testing::Test {
 protected:
  ContractsInAction()
      : topology_(topo::build_figure3()), metadata_(topology_) {}

  /// (device name, prefix) pairs with at least one violation.
  std::set<std::pair<std::string, std::string>> violating_pairs() {
    const routing::BgpSimulator sim(topology_);
    const SimulatorFibSource fibs(sim);
    const DatacenterValidator validator(metadata_, fibs,
                                        make_trie_verifier_factory());
    std::set<std::pair<std::string, std::string>> out;
    for (const Violation& v : validator.run().violations) {
      out.emplace(topology_.device(v.device).name,
                  v.contract.prefix.to_string());
    }
    return out;
  }

  topo::Topology topology_;
  topo::MetadataService metadata_;
};

TEST_F(ContractsInAction, HealthyNetworkHasNoViolations) {
  EXPECT_TRUE(violating_pairs().empty());
}

TEST_F(ContractsInAction, Figure3FailuresMatchThePaperExactly) {
  topo::apply_figure3_failures(topology_);
  const auto violations = violating_pairs();

  const std::string prefix_a = "10.0.0.0/24";  // hosted at ToR1
  const std::string prefix_b = "10.0.1.0/24";  // hosted at ToR2
  const std::string def = "0.0.0.0/0";

  // "ToR1, A1, A2, D1, and D2 have a contract failure for Prefix_B."
  for (const char* device : {"ToR1", "A1", "A2", "D1", "D2"}) {
    EXPECT_TRUE(violations.contains({device, prefix_b})) << device;
  }
  // "ToR2, A3, A4, D3, and D4 have a similar failure for Prefix_A."
  for (const char* device : {"ToR2", "A3", "A4", "D3", "D4"}) {
    EXPECT_TRUE(violations.contains({device, prefix_a})) << device;
  }
  // "Finally, both ToR1 and ToR2 have a default contract failure."
  EXPECT_TRUE(violations.contains({"ToR1", def}));
  EXPECT_TRUE(violations.contains({"ToR2", def}));

  // "R1, R2, D3, D4, A3, and A4 have no contract failures for Prefix_B."
  for (const char* device : {"R1", "R2", "D3", "D4", "A3", "A4"}) {
    EXPECT_FALSE(violations.contains({device, prefix_b})) << device;
  }
  // And no other device has a default contract failure.
  for (const char* device : {"A1", "A2", "A3", "A4", "D1", "D2", "D3", "D4",
                             "ToR3", "ToR4"}) {
    EXPECT_FALSE(violations.contains({device, def})) << device;
  }
  // Cluster B's prefixes are unaffected end to end.
  for (const char* device : {"ToR3", "ToR4", "B1", "B2", "B3", "B4"}) {
    EXPECT_FALSE(violations.contains({device, "10.0.2.0/24"})) << device;
    EXPECT_FALSE(violations.contains({device, "10.0.3.0/24"})) << device;
  }
}

TEST_F(ContractsInAction, TorDefaultViolationShowsTwoOfFourHops) {
  topo::apply_figure3_failures(topology_);
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource fibs(sim);
  const ContractGenerator generator(metadata_);
  TrieVerifier verifier;
  const auto tor1 = *topology_.find_device("ToR1");
  const auto contracts = generator.for_device(tor1);
  const auto violations = verifier.check(*fibs.fetch(tor1), contracts, tor1);
  // Find the default-route violation: actual 2 hops vs expected 4.
  bool found = false;
  for (const Violation& v : violations) {
    if (v.kind == ViolationKind::kDefaultRouteMismatch) {
      EXPECT_EQ(v.actual_next_hops.size(), 2u);
      EXPECT_EQ(v.contract.expected_next_hops.size(), 4u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ContractsInAction, RepairRestoresCleanValidation) {
  topo::FaultInjector injector(topology_);
  const auto link =
      *topology_.find_link(*topology_.find_device("ToR1"),
                           *topology_.find_device("A3"));
  injector.link_down(link);
  EXPECT_FALSE(violating_pairs().empty());
  injector.repair(0);
  EXPECT_TRUE(violating_pairs().empty());
}

}  // namespace
}  // namespace dcv::rcdc
