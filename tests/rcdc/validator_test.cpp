#include "rcdc/validator.hpp"

#include <gtest/gtest.h>

#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"

namespace dcv::rcdc {
namespace {

class ValidatorTest : public testing::Test {
 protected:
  ValidatorTest()
      : topology_(topo::build_clos(topo::ClosParams{
            .clusters = 3,
            .tors_per_cluster = 3,
            .leaves_per_cluster = 4,
            .spines_per_plane = 1,
            .regional_spines = 4})),
        metadata_(topology_) {}

  topo::Topology topology_;
  topo::MetadataService metadata_;
};

TEST_F(ValidatorTest, HealthyDatacenterIsClean) {
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource fibs(sim);
  const DatacenterValidator validator(metadata_, fibs,
                                      make_trie_verifier_factory());
  const auto summary = validator.run();
  EXPECT_EQ(summary.devices_checked, topology_.device_count());
  EXPECT_GT(summary.contracts_checked, 0u);
  EXPECT_TRUE(summary.violations.empty());
  EXPECT_GT(summary.elapsed.count(), 0);
}

TEST_F(ValidatorTest, ParallelRunsAgreeWithSequential) {
  topo::FaultInjector faults(topology_, /*seed=*/11);
  faults.random_link_failures(6);
  faults.random_device_faults(2, topo::DeviceRole::kTor,
                              topo::DeviceFaultKind::kRibFibInconsistency);
  const routing::BgpSimulator sim(topology_, &faults);
  const SimulatorFibSource fibs(sim);
  const DatacenterValidator validator(metadata_, fibs,
                                      make_trie_verifier_factory());
  const auto sequential = validator.run(1);
  const auto parallel = validator.run(8);
  EXPECT_FALSE(sequential.violations.empty());
  EXPECT_EQ(sequential.violations, parallel.violations);
  EXPECT_EQ(sequential.contracts_checked, parallel.contracts_checked);
}

TEST_F(ValidatorTest, SubsetOfDevices) {
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource fibs(sim);
  const DatacenterValidator validator(metadata_, fibs,
                                      make_trie_verifier_factory());
  const auto tors = topology_.devices_with_role(topo::DeviceRole::kTor);
  const auto summary = validator.run(tors, 2);
  EXPECT_EQ(summary.devices_checked, tors.size());
}

TEST_F(ValidatorTest, SmtFactoryWorksEndToEnd) {
  // Small topology to keep the Z3 engine fast.
  const auto small = topo::build_figure3();
  const topo::MetadataService metadata(small);
  const routing::BgpSimulator sim(small);
  const SimulatorFibSource fibs(sim);
  const DatacenterValidator validator(metadata, fibs,
                                      make_smt_verifier_factory());
  EXPECT_TRUE(validator.run(2).violations.empty());
}

TEST_F(ValidatorTest, VerifierFactoryByNameRunsThatEngine) {
  const auto small = topo::build_figure3();
  const topo::MetadataService metadata(small);
  const routing::BgpSimulator sim(small);
  const SimulatorFibSource fibs(sim);
  for (const std::string_view name : kVerifierNames) {
    obs::MetricsRegistry registry;
    const DatacenterValidator validator(
        metadata, fibs, make_verifier_factory(name, &registry));
    EXPECT_TRUE(validator.run(1).violations.empty()) << name;
    EXPECT_GT(registry
                  .counter("dcv_verifier_contracts_checked_total", "",
                           {{"engine", std::string(name)}})
                  .value(),
              0u)
        << name;
  }
  EXPECT_THROW((void)make_verifier_factory("foo"), std::invalid_argument);
}

TEST_F(ValidatorTest, EveryDeviceFaultKindIsDetected) {
  using topo::DeviceFaultKind;
  for (const DeviceFaultKind kind :
       {DeviceFaultKind::kRibFibInconsistency,
        DeviceFaultKind::kLayer2InterfaceBug,
        DeviceFaultKind::kEcmpSingleNextHop,
        DeviceFaultKind::kRejectDefaultRoute}) {
    topo::Topology topology = topo::build_clos(topo::ClosParams{});
    const topo::MetadataService metadata(topology);
    topo::FaultInjector faults(topology);
    // ToRs have 4-way ECMP toward their leaves, so every FIB-distorting
    // fault kind is visible there (a default leaf has a single uplink, on
    // which ECMP truncation is a no-op).
    faults.random_device_faults(1, topo::DeviceRole::kTor, kind);
    const routing::BgpSimulator sim(topology, &faults);
    const SimulatorFibSource fibs(sim);
    const DatacenterValidator validator(metadata, fibs,
                                        make_trie_verifier_factory());
    EXPECT_FALSE(validator.run(2).violations.empty())
        << topo::to_string(kind);
  }
}

TEST_F(ValidatorTest, SynthesizedSourceIsCleanByConstruction) {
  const routing::FibSynthesizer synthesizer(metadata_);
  const SynthesizedFibSource fibs(synthesizer);
  const DatacenterValidator validator(metadata_, fibs,
                                      make_trie_verifier_factory());
  EXPECT_TRUE(validator.run(4).violations.empty());
}

}  // namespace
}  // namespace dcv::rcdc
