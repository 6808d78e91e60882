// FIB handle semantics across the fetch layers: the simulator's cached
// handles, decorators that pass them through or wrap fresh tables, and the
// routing-table directory source.

#include "rcdc/fib_source.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "rcdc/flaky_fib_source.hpp"
#include "rcdc/resilient_fib_source.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "routing/table_io.hpp"
#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"

namespace dcv::rcdc {
namespace {

/// Always fails with one kind; never produces a table.
class FailingFibSource final : public FibSource {
 public:
  [[nodiscard]] FetchOutcome try_fetch(topo::DeviceId) const override {
    return FetchOutcome::failure(FetchErrorKind::kTimeout);
  }
};

TEST(FibHandle, SurvivesReconvergeWithOldContent) {
  auto topology = topo::build_figure3();
  topo::FaultInjector faults(topology);
  routing::BgpSimulator sim(topology, &faults);
  const topo::DeviceId tor = *topology.find_device("ToR1");
  const routing::FibPtr held = sim.fib_handle(tor);
  const routing::ForwardingTable snapshot = *held;
  EXPECT_EQ(sim.fib_handle(tor), held);  // cached: same object

  faults.device_fault(tor, topo::DeviceFaultKind::kRejectDefaultRoute);
  ASSERT_GT(sim.reconverge(), 0);
  const routing::FibPtr fresh = sim.fib_handle(tor);
  EXPECT_NE(fresh, held);
  EXPECT_NE(*fresh, snapshot);
  // The simulator dropped its reference; ours still reads the old table.
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(*held, snapshot);
}

TEST(FibHandle, FlakySuccessPassesInnerHandleThrough) {
  const auto topology = topo::build_figure3();
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  const FlakyFibSource flaky(inner, FlakyConfig{.seed = 3});
  for (const topo::Device& d : topology.devices()) {
    const FetchOutcome outcome = flaky.try_fetch(d.id);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.table, sim.fib_handle(d.id));
  }
}

TEST(FibHandle, FlakyGarbageIsANewObject) {
  const auto topology = topo::build_figure3();
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  const FlakyFibSource flaky(inner,
                             FlakyConfig{.truncate_rate = 1.0, .seed = 3});
  const topo::DeviceId tor = *topology.find_device("ToR1");
  const routing::ForwardingTable before = sim.fib(tor);
  const FetchOutcome outcome = flaky.try_fetch(tor);
  ASSERT_TRUE(outcome.degraded());
  EXPECT_NE(outcome.table, sim.fib_handle(tor));
  EXPECT_EQ(sim.fib(tor), before);  // the shared table was not damaged
}

TEST(FibHandle, ResilientStaleFallbackServesLastGoodHandle) {
  const auto topology = topo::build_figure3();
  const routing::BgpSimulator sim(topology);
  const SimulatorFibSource inner(sim);
  FlakyFibSource flaky(inner, FlakyConfig{.seed = 1});
  ManualFetchClock clock;  // backoff sleeps advance it, never block
  const ResilientFibSource source(flaky, ResilienceConfig{}, &clock);
  const topo::DeviceId tor = *topology.find_device("ToR1");

  const FetchOutcome good = source.try_fetch(tor);
  ASSERT_TRUE(good.ok());
  flaky.mark_dead(tor);
  const FetchOutcome stale = source.try_fetch(tor);
  ASSERT_TRUE(stale.stale);
  EXPECT_EQ(stale.table, good.table);
  EXPECT_EQ(stale.table, sim.fib_handle(tor));
  EXPECT_EQ(source.fetch(tor), good.table);  // fetch() accepts stale
}

TEST(FibHandle, AggregatingForwardsInnerFailureAsOutcome) {
  const auto topology = topo::build_figure3();
  const topo::MetadataService metadata(topology);
  const FailingFibSource failing;
  const AggregatingFibSource aggregated(failing, metadata);
  FetchOutcome outcome;
  ASSERT_NO_THROW(outcome = aggregated.try_fetch(0));
  EXPECT_FALSE(outcome.has_table());
  EXPECT_EQ(outcome.error, FetchErrorKind::kTimeout);
  EXPECT_THROW((void)aggregated.fetch(0), FetchError);
}

/// A scratch directory holding every figure-3 device's converged table as
/// `<device>.rt`; removed on destruction.
struct TableDir {
  TableDir()
      : path(std::filesystem::temp_directory_path() /
             ("dcv-tables-" + std::to_string(::getpid()) + "-" +
              testing::UnitTest::GetInstance()->current_test_info()->name())) {
    std::filesystem::create_directories(path);
    for (const topo::Device& d : topology.devices()) {
      write(d.name, routing::write_routing_table(sim.fib(d.id)));
    }
  }
  ~TableDir() { std::filesystem::remove_all(path); }
  TableDir(const TableDir&) = delete;
  TableDir& operator=(const TableDir&) = delete;

  void write(const std::string& device, const std::string& text) const {
    std::ofstream(path / (device + ".rt")) << text;
  }
  [[nodiscard]] topo::DeviceId id(const char* name) const {
    return *topology.find_device(name);
  }

  topo::Topology topology = topo::build_figure3();
  routing::BgpSimulator sim{topology};
  std::filesystem::path path;
};

TEST(TableDirFibSource, ParsesWrittenTables) {
  const TableDir dir;
  const TableDirFibSource source(dir.path.string(), dir.topology);
  for (const topo::Device& d : dir.topology.devices()) {
    const FetchOutcome outcome = source.try_fetch(d.id);
    ASSERT_TRUE(outcome.ok()) << d.name;
    EXPECT_EQ(*outcome.table, dir.sim.fib(d.id)) << d.name;
  }
}

TEST(TableDirFibSource, MissingFileIsUnreachable) {
  const TableDir dir;
  std::filesystem::remove(dir.path / "ToR1.rt");
  const TableDirFibSource source(dir.path.string(), dir.topology);
  const FetchOutcome outcome = source.try_fetch(dir.id("ToR1"));
  EXPECT_FALSE(outcome.has_table());
  EXPECT_EQ(outcome.error, FetchErrorKind::kUnreachable);
  EXPECT_THROW((void)source.fetch(dir.id("ToR1")), FetchError);
}

TEST(TableDirFibSource, GarbageFileIsCorruptedWithNoTable) {
  const TableDir dir;
  dir.write("ToR1", "this is not a routing table\n");
  const TableDirFibSource source(dir.path.string(), dir.topology);
  const FetchOutcome outcome = source.try_fetch(dir.id("ToR1"));
  EXPECT_FALSE(outcome.has_table());
  EXPECT_EQ(outcome.error, FetchErrorKind::kCorruptedEntry);
  EXPECT_FALSE(outcome.degraded());
}

TEST(TableDirFibSource, BadFilesCostCoverageNotTheRun) {
  const TableDir dir;
  dir.write("ToR1", "garbage\n");
  std::filesystem::remove(dir.path / "A1.rt");
  const topo::MetadataService metadata(dir.topology);
  const TableDirFibSource source(dir.path.string(), dir.topology);
  const DatacenterValidator validator(metadata, source,
                                      make_trie_verifier_factory());
  const auto summary = validator.run(/*threads=*/4);
  EXPECT_EQ(summary.devices_failed, 2u);
  EXPECT_LT(summary.coverage(), 1.0);
  EXPECT_GT(summary.coverage(), 0.0);
}

}  // namespace
}  // namespace dcv::rcdc
