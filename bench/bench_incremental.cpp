// Ablation: full re-validation vs device-granularity incremental
// re-validation (DESIGN.md ablation table).
//
// The incremental-verification systems the paper compares against ([21]
// Delta-net, [50] Libra) invest heavily to make *global* checks
// incremental. Locality makes it trivial: a device's verdict depends only
// on its own FIB, so a monitoring cycle needs to re-verify exactly the
// devices whose tables changed. This bench quantifies the verification
// work saved per cycle under a trickle of faults, on the monitoring
// pipeline's incremental mode with fetch latency switched off.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "rcdc/pipeline.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"

int main(int argc, char** argv) {
  using namespace dcv;

  const std::string json_out = benchio::extract_json_flag(argc, argv);
  benchio::BenchReport report("bench_incremental");

  topo::Topology topology = topo::build_clos(topo::ClosParams{
      .clusters = 24,
      .tors_per_cluster = 16,
      .leaves_per_cluster = 6,
      .spines_per_plane = 2,
      .regional_spines = 4});
  const topo::MetadataService metadata(topology);
  topo::FaultInjector faults(topology, /*seed=*/99);

  std::printf(
      "== ablation: incremental vs full re-validation ==\n"
      "datacenter: %zu devices; one new link fault arrives per cycle\n\n",
      topology.device_count());
  std::printf(
      "  cycle  changed-FIBs  contracts-checked  cycle (ms)  violations\n");

  obs::MetricsRegistry registry;
  routing::BgpSimulator sim(topology, &faults);
  const rcdc::SimulatorFibSource fibs(sim);
  rcdc::MonitoringPipeline pipeline(
      metadata, fibs, rcdc::make_trie_verifier_factory(&registry),
      rcdc::PipelineConfig{.puller_workers = 2,
                           .validator_workers = 2,
                           .time_scale = 0.0,
                           .metrics = &registry});
  std::vector<double> warm_cycle_ms;
  std::vector<double> warm_contracts;
  for (int cycle = 0; cycle < 8; ++cycle) {
    if (cycle > 0) {
      faults.random_link_failures(1);
      sim.reconverge();
    }
    const auto start = std::chrono::steady_clock::now();
    const rcdc::PipelineStats stats = pipeline.run_cycle();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (cycle == 0) {
      report.value("cold_cycle_ms", "ms", ms);
    } else {
      warm_cycle_ms.push_back(ms);
      warm_contracts.push_back(static_cast<double>(stats.contracts_checked));
    }
    std::printf("  %5d  %12zu  %17zu  %10.1f  %10zu%s\n", cycle,
                stats.devices_revalidated, stats.contracts_checked, ms,
                stats.violations,
                cycle == 0 ? "   (cold start: everything validates)" : "");
  }

  std::printf(
      "\nAfter the cold start, per-cycle verification drops to the devices\n"
      "whose FIBs actually changed. The saving depends on the fault: a\n"
      "failure on a ToR uplink changes that prefix's ECMP set in every\n"
      "ToR's FIB (most devices revalidate), while an upper-layer failure\n"
      "stays local (see the small cycles). Either way the cached verdicts\n"
      "of untouched devices are reused verbatim. (Routing reconverges\n"
      "between cycles, outside the timed cycle.)\n");

  std::printf("\n-- metrics registry (Prometheus exposition) --\n%s",
              obs::write_prometheus(registry).c_str());
  if (!json_out.empty()) {
    report.workload("devices",
                    static_cast<double>(topology.device_count()));
    report.metric("warm_cycle_ms", "ms", warm_cycle_ms);
    report.metric("warm_contracts_checked", "contracts", warm_contracts,
                  "none");
    report.attach_registry(&registry);
    if (!report.write(json_out)) return 1;
  }
  return 0;
}
