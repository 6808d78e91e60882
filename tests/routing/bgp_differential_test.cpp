// Differential pinning of the worklist engine (BgpSimulator) against the
// retained Jacobi reference (ReferenceBgpSimulator): across randomized
// small Clos topologies, fault sets, and link-state churn, warm-started
// reconvergence must produce byte-equal RIBs and FIBs to a cold reference
// run on the mutated topology — at thread count 1 and at thread count N.
//
// The BgpParallel and BgpCheckpoint suites at the bottom are additionally
// run under ThreadSanitizer in CI; keep their tests self-contained.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <stdexcept>
#include <thread>

#include "net/error.hpp"
#include "obs/metrics.hpp"
#include "rcdc/fib_source.hpp"
#include "routing/bgp_reference.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"

namespace dcv::routing {
namespace {

using topo::ClosParams;
using topo::DeviceFaultKind;
using topo::DeviceId;
using topo::DeviceRole;
using topo::FaultInjector;
using topo::Topology;

ClosParams random_params(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::uint32_t> clusters(1, 3);
  std::uniform_int_distribution<std::uint32_t> tors(1, 3);
  std::uniform_int_distribution<std::uint32_t> leaves(1, 3);
  std::uniform_int_distribution<std::uint32_t> spines(1, 2);
  std::uniform_int_distribution<std::uint32_t> regionals(2, 4);
  return ClosParams{.clusters = clusters(rng),
                    .tors_per_cluster = tors(rng),
                    .leaves_per_cluster = leaves(rng),
                    .spines_per_plane = spines(rng),
                    .regional_spines = regionals(rng)};
}

/// One random mutation drawn from the production churn mix: link failures,
/// session shutdowns, device faults, ASN drift, and repairs of earlier
/// faults (FaultInjector::repair clears and re-applies the remaining set,
/// which stresses the reconverge diff with whole-topology state swings).
void churn_step(Topology& topology, FaultInjector& injector,
                std::mt19937_64& rng) {
  std::uniform_real_distribution<double> pick(0.0, 1.0);
  const double p = pick(rng);
  if (p < 0.30) {
    injector.random_link_failures(1);
  } else if (p < 0.50) {
    injector.random_bgp_shutdowns(1);
  } else if (p < 0.70) {
    static constexpr DeviceFaultKind kKinds[] = {
        DeviceFaultKind::kRibFibInconsistency,
        DeviceFaultKind::kLayer2InterfaceBug,
        DeviceFaultKind::kEcmpSingleNextHop,
        DeviceFaultKind::kRejectDefaultRoute,
    };
    static constexpr DeviceRole kRoles[] = {
        DeviceRole::kTor, DeviceRole::kLeaf, DeviceRole::kSpine};
    std::uniform_int_distribution<std::size_t> kind_pick(0, 3);
    std::uniform_int_distribution<std::size_t> role_pick(0, 2);
    injector.random_device_faults(1, kRoles[role_pick(rng)],
                                  kKinds[kind_pick(rng)]);
  } else if (p < 0.85 && !injector.records().empty()) {
    std::uniform_int_distribution<std::size_t> record_pick(
        0, injector.records().size() - 1);
    injector.repair(record_pick(rng));
  } else {
    // ASN drift: the §2.6.2 migration misconfiguration — reassign a random
    // non-regional device's ASN within the private range.
    std::uniform_int_distribution<std::size_t> device_pick(
        0, topology.device_count() - 1);
    std::uniform_int_distribution<topo::Asn> asn_pick(64500, 65535);
    const DeviceId d = static_cast<DeviceId>(device_pick(rng));
    if (topology.device(d).role != DeviceRole::kRegionalSpine) {
      topology.set_asn(d, asn_pick(rng));
    }
  }
}

/// Asserts warm engine state ≡ cold reference on every device.
void expect_equal(const BgpSimulator& sim, const ReferenceBgpSimulator& ref,
                  const Topology& topology, const char* context) {
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(sim.rib(device.id), ref.rib(device.id))
        << context << ": RIB mismatch at " << device.name;
    ASSERT_EQ(sim.fib(device.id), ref.fib(device.id))
        << context << ": FIB mismatch at " << device.name;
  }
}

class BgpDifferential : public testing::TestWithParam<unsigned> {};

// 27 random topologies x 20 churn steps per thread count = 540 mutated
// states per instantiation, 1080 across both — each state compared on
// every device's RIB and FIB against a cold reference run.
TEST_P(BgpDifferential, WarmReconvergeMatchesColdReferenceUnderChurn) {
  const unsigned threads = GetParam();
  std::mt19937_64 rng(0xD1FFu * (threads + 1));
  for (int topo_case = 0; topo_case < 27; ++topo_case) {
    Topology topology = topo::build_clos(random_params(rng));
    FaultInjector injector(topology, /*seed=*/rng());
    BgpSimulator sim(topology, &injector, nullptr,
                     BgpSimOptions{.threads = threads,
                                   .parallel_threshold = 8});
    {
      const ReferenceBgpSimulator cold_ref(topology, &injector);
      ASSERT_EQ(sim.rounds(), cold_ref.rounds());
      expect_equal(sim, cold_ref, topology, "cold");
    }
    for (int step = 0; step < 20; ++step) {
      churn_step(topology, injector, rng);
      sim.reconverge();
      const ReferenceBgpSimulator ref(topology, &injector);
      expect_equal(sim, ref, topology, "churn");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, BgpDifferential,
                         testing::Values(1u, 4u));

TEST(BgpReconverge, NoChangeIsZeroRounds) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 2,
                                                  .tors_per_cluster = 2,
                                                  .leaves_per_cluster = 2,
                                                  .spines_per_plane = 1,
                                                  .regional_spines = 2});
  BgpSimulator sim(topology);
  EXPECT_EQ(sim.reconverge(), 0);
}

TEST(BgpReconverge, HostedPrefixChangePropagatesAsDelta) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 2,
                                                  .tors_per_cluster = 2,
                                                  .leaves_per_cluster = 2,
                                                  .spines_per_plane = 1,
                                                  .regional_spines = 2});
  BgpSimulator sim(topology);
  const auto tors = topology.devices_with_role(DeviceRole::kTor);
  const auto extra = net::Prefix::parse("10.200.0.0/24");
  topology.add_hosted_prefix(tors.front(), extra);
  EXPECT_GT(sim.reconverge(), 0);
  const ReferenceBgpSimulator ref(topology);
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(sim.rib(device.id), ref.rib(device.id)) << device.name;
  }
  EXPECT_TRUE(sim.rib(tors.front()).contains(extra));
}

TEST(BgpReconverge, TopologyGrowthFallsBackToColdRun) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 2,
                                                  .tors_per_cluster = 2,
                                                  .leaves_per_cluster = 2,
                                                  .spines_per_plane = 1,
                                                  .regional_spines = 2});
  BgpSimulator sim(topology);
  // A new device+link changes the expected shape: not representable as a
  // delta seed, so reconverge must rebuild from cold — and still be right.
  const auto spines = topology.devices_with_role(DeviceRole::kSpine);
  const DeviceId extra = topology.add_device(
      "extra-regional", DeviceRole::kRegionalSpine, 63099);
  topology.add_link(extra, spines.front());
  EXPECT_GT(sim.reconverge(), 0);
  const ReferenceBgpSimulator ref(topology);
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(sim.rib(device.id), ref.rib(device.id)) << device.name;
  }
}

// Regression for the historical convergence check that ignored
// origin_datacenter: entries differing only in origin must compare unequal,
// so an origin flip re-triggers propagation and regional-spine hairpin
// suppression never acts on a stale origin.
TEST(RibEntryEquality, OriginDatacenterIsPartOfEquality) {
  const auto prefix = net::Prefix::parse("10.0.0.0/24");
  const std::vector<topo::Asn> asns{64500, 63000};
  const PathId path = global_path_table().intern(asns);
  const std::vector<DeviceId> hops{3};
  Rib a;
  a.append(prefix, path, hops, /*connected=*/false, /*origin=*/0);
  Rib same;
  same.append(prefix, path, hops, /*connected=*/false, /*origin=*/0);
  Rib flipped;
  flipped.append(prefix, path, hops, /*connected=*/false, /*origin=*/1);
  EXPECT_TRUE(Rib::entry_equal(a, a.entries()[0], same, same.entries()[0]));
  EXPECT_FALSE(
      Rib::entry_equal(a, a.entries()[0], flipped, flipped.entries()[0]));
  EXPECT_EQ(a, same);
  EXPECT_NE(a, flipped);
}

TEST(RibLookup, FindAtContains) {
  const auto p1 = net::Prefix::parse("10.0.0.0/24");
  const auto p2 = net::Prefix::parse("10.0.1.0/24");
  Rib rib;
  rib.append(p2, kEmptyPathId, {}, /*connected=*/false, /*origin=*/0);
  rib.append(p1, kEmptyPathId, {}, /*connected=*/false, /*origin=*/0);
  rib.sort_by_prefix();
  ASSERT_EQ(rib.size(), 2u);
  EXPECT_EQ(rib.begin()->prefix, std::min(p1, p2));  // canonical order
  EXPECT_TRUE(rib.contains(p1));
  EXPECT_EQ(rib.at(p2).prefix, p2);
  EXPECT_EQ(rib.find(net::Prefix::parse("10.9.9.0/24")), nullptr);
  EXPECT_THROW(static_cast<void>(rib.at(net::Prefix::default_route())),
               InvalidArgument);
}

// The acceptance criterion for SimulatorFibSource: repeated fetches serve
// the cached materialization; a reconverge rebuilds only the devices whose
// RIB actually changed.
TEST(FibCache, FetchesServeCachedTablesAcrossCycles) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 3,
                                                  .tors_per_cluster = 3,
                                                  .leaves_per_cluster = 3,
                                                  .spines_per_plane = 2,
                                                  .regional_spines = 4});
  FaultInjector injector(topology, /*seed=*/9);
  obs::MetricsRegistry registry;
  BgpSimulator sim(topology, &injector, &registry);
  const rcdc::SimulatorFibSource source(sim);

  const auto& rebuilds =
      registry.counter("dcv_bgp_fib_rebuilds_total", "");
  const auto& hits = registry.counter("dcv_bgp_fib_cache_hits_total", "");
  const std::size_t n = topology.device_count();

  // Two full pipeline cycles: every table is built exactly once.
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (DeviceId d = 0; d < n; ++d) (void)source.fetch(d);
  }
  EXPECT_EQ(rebuilds.value(), n);
  EXPECT_EQ(hits.value(), n);

  // One link fault + warm reconverge: only affected devices rebuild.
  injector.random_link_failures(1);
  EXPECT_GT(sim.reconverge(), 0);
  for (DeviceId d = 0; d < n; ++d) (void)source.fetch(d);
  const std::uint64_t after_fault = rebuilds.value();
  EXPECT_GT(after_fault, n);       // something was invalidated
  EXPECT_LT(after_fault, 2 * n);   // but nowhere near the whole fleet

  // A FIB-programming fault flips a device's table without touching RIBs:
  // exactly that one device rebuilds.
  const auto tors = topology.devices_with_role(DeviceRole::kTor);
  injector.device_fault(tors.front(),
                        DeviceFaultKind::kEcmpSingleNextHop);
  EXPECT_EQ(sim.reconverge(), 0);  // no routing change
  for (DeviceId d = 0; d < n; ++d) (void)source.fetch(d);
  EXPECT_EQ(rebuilds.value(), after_fault + 1);
}

// The one-pass program_fib() against the rule-by-rule build it replaced:
// each RIB entry add()ed in RIB order, with the §2.6.2 FIB faults applied
// to its hop list first.
ForwardingTable program_fib_by_add(const Rib& rib, bool rib_fib_bug,
                                   bool ecmp_bug) {
  ForwardingTable fib;
  for (const RibEntry& entry : rib) {
    const std::span<const DeviceId> hops = rib.next_hops(entry);
    Rule rule{.prefix = entry.prefix,
              .next_hops = std::vector<DeviceId>(hops.begin(), hops.end()),
              .connected = entry.connected};
    if (((rib_fib_bug && entry.prefix.is_default()) || ecmp_bug) &&
        rule.next_hops.size() > 1) {
      rule.next_hops.resize(1);
    }
    fib.add(std::move(rule));
  }
  return fib;
}

TEST(ProgramFib, OnePassEqualsRuleByRuleAdd) {
  Topology topology = topo::build_figure3();
  FaultInjector injector(topology);
  const DeviceId clean = 0;
  const DeviceId rib_fib = 1;
  const DeviceId ecmp = 2;
  injector.device_fault(rib_fib, DeviceFaultKind::kRibFibInconsistency);
  injector.device_fault(ecmp, DeviceFaultKind::kEcmpSingleNextHop);

  std::mt19937_64 rng(0xF1B);
  std::uniform_int_distribution<std::uint32_t> addr;
  std::uniform_int_distribution<int> len(0, 32);
  std::uniform_int_distribution<int> hop(0, 30);
  std::uniform_int_distribution<int> hop_count(0, 5);
  const PathId path = global_path_table().intern(std::vector<topo::Asn>{65001});
  // Rules released by one trial's table seed the next build, whose RIB may
  // be larger or smaller.
  std::vector<Rule> scratch;
  for (int trial = 0; trial < 100; ++trial) {
    // Distinct random prefixes of every length, /0 included in most RIBs;
    // hop lists long enough to spill into the arena.
    std::vector<net::Prefix> prefixes;
    if (trial % 4 != 0) prefixes.push_back(net::Prefix::default_route());
    for (int i = 0; i < trial * 37 % 100 * 3; ++i) {
      prefixes.emplace_back(net::Ipv4Address(addr(rng)), len(rng));
    }
    std::sort(prefixes.begin(), prefixes.end());
    prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                   prefixes.end());
    std::shuffle(prefixes.begin(), prefixes.end(), rng);
    Rib rib;
    for (const net::Prefix& prefix : prefixes) {
      std::vector<DeviceId> hops;
      for (int h = hop_count(rng); h > 0; --h) hops.push_back(hop(rng));
      canonicalize(hops);
      const bool connected = hops.empty() && hop(rng) % 2 == 0;
      rib.append(prefix, connected ? kEmptyPathId : path, hops, connected,
                 /*origin_datacenter=*/0);
    }
    rib.sort_by_prefix();

    EXPECT_EQ(program_fib(rib, nullptr, clean),
              program_fib_by_add(rib, false, false))
        << "trial " << trial;
    ForwardingTable reused = program_fib(rib, nullptr, clean,
                                         std::move(scratch));
    EXPECT_EQ(reused, program_fib_by_add(rib, false, false))
        << "trial " << trial;
    scratch = std::move(reused).release();
    EXPECT_EQ(program_fib(rib, &injector, clean),
              program_fib_by_add(rib, false, false))
        << "trial " << trial;
    EXPECT_EQ(program_fib(rib, &injector, rib_fib),
              program_fib_by_add(rib, true, false))
        << "trial " << trial;
    EXPECT_EQ(program_fib(rib, &injector, ecmp),
              program_fib_by_add(rib, false, true))
        << "trial " << trial;
  }
}

// dcv_bgp_converge_ns holds one cold sample per cold run and one warm
// sample per reconverge(); dcv_fib_materialize_ns one per table built.
TEST(BgpMetrics, OneReconvergeRecordsOneWarmSample) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 2,
                                                  .tors_per_cluster = 2,
                                                  .leaves_per_cluster = 2,
                                                  .spines_per_plane = 1,
                                                  .regional_spines = 2});
  obs::MetricsRegistry registry;
  BgpSimulator sim(topology, nullptr, &registry);
  const auto& cold =
      registry.histogram("dcv_bgp_converge_ns", "", {{"mode", "cold"}});
  const auto& warm =
      registry.histogram("dcv_bgp_converge_ns", "", {{"mode", "warm"}});
  const auto& materialize = registry.histogram("dcv_fib_materialize_ns", "");
  EXPECT_EQ(cold.count(), 1u);
  EXPECT_EQ(warm.count(), 0u);

  const DeviceId tor = topology.devices_with_role(DeviceRole::kTor)[0];
  topology.set_bgp_state(topology.links_of(tor)[0],
                         topo::BgpSessionState::kAdminShutdown);
  ASSERT_GT(sim.reconverge(), 0);
  EXPECT_EQ(cold.count(), 1u);
  EXPECT_EQ(warm.count(), 1u);
  EXPECT_GT(warm.sum(), 0u);

  EXPECT_EQ(materialize.count(), 0u);
  (void)sim.fib(0);
  (void)sim.fib(0);  // served from the cache: no second sample
  EXPECT_EQ(materialize.count(), 1u);
}

// ---------------------------------------------------------------------------
// BgpParallel.* — exercised under ThreadSanitizer in CI.

TEST(BgpParallel, DeterministicAcrossThreadCounts) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 4,
                                                  .tors_per_cluster = 4,
                                                  .leaves_per_cluster = 4,
                                                  .spines_per_plane = 2,
                                                  .regional_spines = 4});
  const BgpSimulator serial(topology, nullptr, nullptr,
                            BgpSimOptions{.threads = 1});
  const BgpSimulator parallel(topology, nullptr, nullptr,
                              BgpSimOptions{.threads = 8,
                                            .parallel_threshold = 1});
  ASSERT_EQ(serial.rounds(), parallel.rounds());
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(serial.rib(device.id), parallel.rib(device.id)) << device.name;
  }
}

TEST(BgpParallel, ReconvergeChurnWithConcurrentFibFetches) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 4,
                                                  .tors_per_cluster = 3,
                                                  .leaves_per_cluster = 3,
                                                  .spines_per_plane = 2,
                                                  .regional_spines = 4});
  FaultInjector injector(topology, /*seed=*/21);
  BgpSimulator sim(topology, &injector, nullptr,
                   BgpSimOptions{.threads = 4, .parallel_threshold = 1});
  std::mt19937_64 rng(21);
  for (int round = 0; round < 5; ++round) {
    churn_step(topology, injector, rng);
    sim.reconverge();
    // Converged state is immutable until the next reconverge: hammer the
    // striped FIB cache from several threads at once.
    std::vector<std::thread> fetchers;
    for (int t = 0; t < 4; ++t) {
      fetchers.emplace_back([&sim, &topology, t] {
        for (std::size_t d = 0; d < topology.device_count(); ++d) {
          const auto& fib =
              sim.fib(static_cast<DeviceId>((d + t) %
                                            topology.device_count()));
          ASSERT_GE(fib.rules().size(), 0u);
        }
      });
    }
    for (std::thread& f : fetchers) f.join();
  }
  const ReferenceBgpSimulator ref(topology, &injector);
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(sim.rib(device.id), ref.rib(device.id)) << device.name;
  }
}

// ---------------------------------------------------------------------------
// BgpCheckpoint.* — a trial undone from the undo log leaves exactly the
// checkpoint: every RIB equal to a cold run on the base topology, every
// materialized FIB handle the same object, no changed-device marks. Each
// case runs at 1 and at 4 threads; the 4-thread run sends every frontier
// through the parallel path into the log (exercised under TSan in CI).

Topology checkpoint_fabric() {
  return topo::build_clos(ClosParams{.clusters = 3,
                                     .tors_per_cluster = 3,
                                     .leaves_per_cluster = 3,
                                     .spines_per_plane = 2,
                                     .regional_spines = 4});
}

topo::LinkId link_between(const Topology& topology, DeviceId a, DeviceId b) {
  return *topology.find_link(a, b);
}

/// checkpoint → each step of `trial` followed by a reconverge → restore
/// the topology → rollback, then compares against the checkpoint. The
/// simulator must then still reconverge the same change correctly.
void expect_trial_undone(
    const std::vector<std::function<void(Topology&)>>& trial) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const Topology base = checkpoint_fabric();
    Topology topology = base;
    BgpSimulator sim(topology, nullptr, nullptr,
                     BgpSimOptions{.threads = threads,
                                   .parallel_threshold = 1});
    std::vector<FibPtr> handles;
    for (const topo::Device& device : topology.devices()) {
      handles.push_back(sim.fib_handle(device.id));
    }
    (void)sim.take_changed_devices();

    sim.checkpoint();
    for (const auto& step : trial) {
      step(topology);
      ASSERT_GT(sim.reconverge(), 0);
    }
    ASSERT_FALSE(sim.take_changed_devices().empty());
    topology = base;
    sim.rollback();

    const ReferenceBgpSimulator cold(base);
    for (const topo::Device& device : topology.devices()) {
      ASSERT_EQ(sim.rib(device.id), cold.rib(device.id)) << device.name;
      ASSERT_EQ(sim.fib_handle(device.id), handles[device.id]) << device.name;
    }
    EXPECT_TRUE(sim.take_changed_devices().empty());

    // The restored diff state seeds the next change exactly.
    for (const auto& step : trial) step(topology);
    ASSERT_GT(sim.reconverge(), 0);
    const ReferenceBgpSimulator changed(topology);
    for (const topo::Device& device : topology.devices()) {
      ASSERT_EQ(sim.rib(device.id), changed.rib(device.id)) << device.name;
      ASSERT_EQ(sim.fib(device.id), changed.fib(device.id)) << device.name;
    }
  }
}

TEST(BgpCheckpoint, LinkShutIsUndone) {
  expect_trial_undone({[](Topology& topology) {
    topology.set_bgp_state(link_between(topology,
                                        topology.tors_in_cluster(0)[0],
                                        topology.leaves_in_cluster(0)[0]),
                           topo::BgpSessionState::kAdminShutdown);
  }});
}

TEST(BgpCheckpoint, LinkDownIsUndone) {
  expect_trial_undone({[](Topology& topology) {
    const DeviceId leaf = topology.leaves_in_cluster(1)[0];
    const DeviceId spine = topology.link(topology.links_of(leaf).back()).other(leaf);
    topology.set_link_state(link_between(topology, leaf, spine),
                            topo::LinkState::kDown);
  }});
}

TEST(BgpCheckpoint, AsnReassignmentIsUndone) {
  // The §2.6.2 migration misconfiguration: a leaf takes another cluster's
  // leaf ASN.
  expect_trial_undone({[](Topology& topology) {
    topology.set_asn(topology.leaves_in_cluster(1)[0],
                     topology.device(topology.leaves_in_cluster(0)[0]).asn);
  }});
}

TEST(BgpCheckpoint, TwoLinkChangeOverTwoReconvergesIsUndone) {
  expect_trial_undone(
      {[](Topology& topology) {
         topology.set_bgp_state(
             link_between(topology, topology.tors_in_cluster(2)[1],
                          topology.leaves_in_cluster(2)[0]),
             topo::BgpSessionState::kAdminShutdown);
       },
       [](Topology& topology) {
         topology.set_link_state(
             link_between(topology, topology.tors_in_cluster(2)[1],
                          topology.leaves_in_cluster(2)[1]),
             topo::LinkState::kDown);
       }});
}

// ---------------------------------------------------------------------------
// BgpOracle.* — every link of a fabric with regional spines, shut and then
// down, each as one checkpoint → reconverge → rollback trial (exercised
// under ThreadSanitizer in CI). Private-ASN stripping at the regional tier
// makes equal-length paths arrive in different rounds, so next-hop-only
// changes and export changes interleave.

/// Whether two RIBs of one device export the same routes: the same
/// prefixes with the same path, connected flag and origin (next hops aside).
bool same_exports(const Rib& a, const Rib& b) {
  return std::ranges::equal(a, b, [](const RibEntry& x, const RibEntry& y) {
    return x.prefix == y.prefix && x.path == y.path &&
           x.connected == y.connected &&
           x.origin_datacenter == y.origin_datacenter;
  });
}

TEST(BgpOracle, EveryLinkTrialMatchesColdReferenceAndRollsBack) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const Topology base = checkpoint_fabric();
    Topology topology = base;
    BgpSimulator sim(topology, nullptr, nullptr,
                     BgpSimOptions{.threads = threads,
                                   .parallel_threshold = 1});
    std::vector<Rib> base_ribs;
    std::vector<ForwardingTable> base_fibs;
    for (const topo::Device& device : base.devices()) {
      base_ribs.push_back(sim.rib(device.id));
      base_fibs.push_back(sim.fib(device.id));
    }
    (void)sim.take_changed_devices();

    int next_hop_only_trials = 0;
    const std::function<void(Topology&, topo::LinkId)> kChanges[] = {
        [](Topology& t, topo::LinkId l) {
          t.set_bgp_state(l, topo::BgpSessionState::kAdminShutdown);
        },
        [](Topology& t, topo::LinkId l) {
          t.set_link_state(l, topo::LinkState::kDown);
        },
    };
    for (const topo::Link& link : base.links()) {
      for (std::size_t c = 0; c < 2; ++c) {
        SCOPED_TRACE(testing::Message()
                     << (c == 0 ? "shut " : "down ")
                     << base.device(link.a).name << "-"
                     << base.device(link.b).name);
        sim.checkpoint();
        kChanges[c](topology, link.id);
        const int rounds = sim.reconverge();

        const ReferenceBgpSimulator ref(topology);
        std::vector<DeviceId> differ;
        bool exports_changed = false;
        for (const topo::Device& device : topology.devices()) {
          const Rib& rib = sim.rib(device.id);
          const ForwardingTable& fib = sim.fib(device.id);
          ASSERT_EQ(rib, ref.rib(device.id)) << device.name;
          ASSERT_EQ(fib, ref.fib(device.id)) << device.name;
          if (rib != base_ribs[device.id] || fib != base_fibs[device.id]) {
            differ.push_back(device.id);
          }
          exports_changed |= !same_exports(rib, base_ribs[device.id]);
        }
        EXPECT_EQ(sim.take_changed_devices(), differ);
        if (!differ.empty() && !exports_changed) {
          // Only next hops moved: the synchronous reference changes them in
          // one round and settles in the next.
          EXPECT_EQ(rounds, 2);
          ++next_hop_only_trials;
        }

        topology = base;
        sim.rollback();
        for (const topo::Device& device : topology.devices()) {
          ASSERT_EQ(sim.rib(device.id), base_ribs[device.id]) << device.name;
          ASSERT_EQ(sim.fib(device.id), base_fibs[device.id]) << device.name;
        }
        ASSERT_TRUE(sim.take_changed_devices().empty());
      }
    }
    EXPECT_GT(next_hop_only_trials, 0);
  }
}

TEST(BgpCheckpoint, RefusesAnUnrestoredTopology) {
  const Topology base = checkpoint_fabric();
  Topology topology = base;
  BgpSimulator sim(topology);
  EXPECT_THROW(sim.rollback(), std::logic_error);  // no trial open

  const topo::LinkId link = link_between(
      topology, topology.tors_in_cluster(0)[0], topology.leaves_in_cluster(0)[0]);
  sim.checkpoint();
  topology.set_bgp_state(link, topo::BgpSessionState::kAdminShutdown);
  ASSERT_GT(sim.reconverge(), 0);
  EXPECT_THROW(sim.rollback(), std::logic_error);
  // The refusal changed nothing: the trial's state stands...
  const ReferenceBgpSimulator trial(topology);
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(sim.rib(device.id), trial.rib(device.id)) << device.name;
  }
  // ...and the trial is still open for a proper rollback.
  topology = base;
  sim.rollback();
  const ReferenceBgpSimulator cold(base);
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(sim.rib(device.id), cold.rib(device.id)) << device.name;
  }
}

TEST(BgpCheckpoint, ColdTrialIsUndoneByAColdRun) {
  const Topology base = checkpoint_fabric();
  Topology topology = base;
  BgpSimulator sim(topology);
  sim.checkpoint();
  const DeviceId extra = topology.add_device(
      "extra-regional", DeviceRole::kRegionalSpine, 63099);
  topology.add_link(extra, topology.devices_with_role(DeviceRole::kSpine)[0]);
  ASSERT_GT(sim.reconverge(), 0);  // a reshaped fabric converges cold
  topology = base;
  sim.rollback();
  const ReferenceBgpSimulator cold(base);
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(sim.rib(device.id), cold.rib(device.id)) << device.name;
    ASSERT_EQ(sim.fib(device.id), cold.fib(device.id)) << device.name;
  }
  EXPECT_EQ(sim.reconverge(), 0);
}

}  // namespace
}  // namespace dcv::routing
