// Verification hot path: what does a monitoring cycle cost when the tables
// are already in hand?
//
// bench_pipeline measures the full Figure 5 pipeline, where (scaled)
// 200-800ms fetches dominate exactly as in production (§2.6.1). This bench
// removes fetching from the picture — tables are precomputed and returned
// by copy, fetch latency simulation is off — to isolate three parts of
// the hot path:
//
//   1. cold sweeps: the shipping engine (§2.5.2's related-rule walk as
//      binary searches over the sorted table) against LinearVerifier, the
//      oracle that scans every rule per contract, over the same
//      precompiled contract plan and tables, single-threaded. The two
//      must report the same violations device by device and element by
//      element (exit 3 otherwise), and the median of 5 paired runs is
//      gated at >= 3x;
//   2. warm cycles: fingerprint-based incremental skip — an unchanged
//      device replays its cached verdict without checking a contract. Each
//      of 7 pairs runs a cold cycle on a fresh pipeline and then a warm
//      one on it, and the median paired warm/cold ratio is gated at >= 3x;
//   3. churn cycles: 1% of devices change between cycles, the
//      steady-state regime incremental validation is built for.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "rcdc/contract_gen.hpp"
#include "rcdc/linear_verifier.hpp"
#include "rcdc/pipeline.hpp"
#include "rcdc/trie_verifier.hpp"
#include "routing/fib_synthesizer.hpp"
#include "topology/clos_builder.hpp"

namespace {

using namespace dcv;

/// Precomputed tables, fetched by copy into a fresh handle: the cost model
/// of a validator that already holds this cycle's pulls. A fresh handle per
/// fetch means the pipeline's identity shortcut never fires, so warm cycles
/// here measure the fingerprint path.
class CachedFibSource final : public rcdc::FibSource {
 public:
  explicit CachedFibSource(std::vector<routing::ForwardingTable> tables)
      : tables_(std::move(tables)) {}

  [[nodiscard]] rcdc::FetchOutcome try_fetch(
      topo::DeviceId device) const override {
    return rcdc::FetchOutcome::success(routing::share_fib(tables_[device]));
  }

  /// Perturbs `count` devices' tables (drops one ECMP next hop from their
  /// first multi-hop rule), modeling inter-cycle churn.
  void churn(std::size_t count) {
    std::size_t changed = 0;
    for (std::size_t d = 0; d < tables_.size() && changed < count; ++d) {
      routing::ForwardingTable rebuilt;
      bool mutated = false;
      for (const routing::Rule& rule : tables_[d].rules()) {
        routing::Rule copy = rule;
        if (!mutated && copy.next_hops.size() > 1) {
          copy.next_hops.pop_back();
          mutated = true;
        }
        rebuilt.add(std::move(copy));
      }
      if (mutated) {
        tables_[d] = std::move(rebuilt);
        ++changed;
      }
    }
  }

 private:
  std::vector<routing::ForwardingTable> tables_;
};

/// One cold sweep with one engine over the precompiled plan, single
/// threaded. `found[d]` receives device d's violations. Returns wall
/// seconds.
double sweep(rcdc::Verifier& verifier, const rcdc::ContractPlan& plan,
             const std::vector<routing::ForwardingTable>& tables,
             std::vector<std::vector<rcdc::Violation>>& found) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t d = 0; d < tables.size(); ++d) {
    const auto device = static_cast<topo::DeviceId>(d);
    found[d] = verifier.check(tables[d], plan.contracts_for(device), device);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_out = benchio::extract_json_flag(argc, argv);
  benchio::BenchReport report("bench_hotpath");

  const topo::ClosParams params{.clusters = 24,
                                .tors_per_cluster = 16,
                                .leaves_per_cluster = 6,
                                .spines_per_plane = 2,
                                .regional_spines = 4};
  const topo::Topology topology = topo::build_clos(params);
  const topo::MetadataService metadata(topology);
  const routing::FibSynthesizer synthesizer(metadata);
  const std::size_t device_count = topology.device_count();
  const unsigned threads = 4;

  std::vector<routing::ForwardingTable> tables;
  tables.reserve(device_count);
  for (std::size_t d = 0; d < device_count; ++d) {
    tables.push_back(synthesizer.fib(static_cast<topo::DeviceId>(d)));
  }

  std::printf(
      "== verification hot path (fetch removed; %zu devices, %u threads) "
      "==\n\n",
      device_count, threads);

  // -- cold sweeps: shipping engine vs the linear oracle, median of 5 ------
  // Single-threaded with an untimed warmup: the speedup is a per-device
  // work ratio and holds at any worker count, but a multi-threaded sweep
  // lasting tens of milliseconds lets one scheduler hiccup on a loaded
  // machine swing the ratio by more than the effect being measured.
  const rcdc::ContractGenerator generator(metadata);
  const rcdc::ContractPlanPtr plan = generator.plan();
  rcdc::TrieVerifier engine;
  rcdc::LinearVerifier oracle;
  std::vector<std::vector<rcdc::Violation>> engine_found(device_count);
  std::vector<std::vector<rcdc::Violation>> oracle_found(device_count);
  sweep(oracle, *plan, tables, oracle_found);  // warmup
  sweep(engine, *plan, tables, engine_found);  // warmup
  double linear_s = 1e300;
  double plan_s = 1e300;
  std::array<double, 5> paired_speedup{};
  for (double& speedup : paired_speedup) {
    const double run_linear = sweep(oracle, *plan, tables, oracle_found);
    const double run_plan = sweep(engine, *plan, tables, engine_found);
    linear_s = std::min(linear_s, run_linear);
    plan_s = std::min(plan_s, run_plan);
    speedup = run_linear / run_plan;
  }
  for (std::size_t d = 0; d < device_count; ++d) {
    if (engine_found[d] != oracle_found[d]) {
      std::printf("FATAL: engines disagree on device %zu (%zu vs %zu "
                  "violations)\n",
                  d, engine_found[d].size(), oracle_found[d].size());
      return 3;
    }
  }
  const double linear_rate = static_cast<double>(device_count) / linear_s;
  const double plan_rate = static_cast<double>(device_count) / plan_s;
  // The gated ratio is the median of per-run paired ratios: the two sweeps
  // in one run see the same machine conditions, so a transient stall skews
  // one pair, not the median — unlike min-of-each-side, which can pair a
  // lucky oracle run with an unlucky engine run.
  std::sort(paired_speedup.begin(), paired_speedup.end());
  const double cold_speedup = paired_speedup[paired_speedup.size() / 2];
  std::printf("cold sweep over the plan (best of %zu, 1 thread):\n",
              paired_speedup.size());
  std::printf("  linear oracle (scan every rule per contract): "
              "%8.1f devices/s\n", linear_rate);
  std::printf("  shipping engine (sorted-table walk):          "
              "%8.1f devices/s\n", plan_rate);
  std::printf("  cold speedup vs linear: %.2fx median (acceptance floor "
              "3x)\n\n",
              cold_speedup);
  // Informational: the oracle speeding up or slowing down is machine
  // noise, not a product regression.
  report.value("cold_linear_devices_per_s", "1/s", linear_rate, "none");
  report.value("cold_plan_devices_per_s", "1/s", plan_rate, "higher");
  report.value("cold_speedup_vs_linear_ratio", "x", cold_speedup, "higher");

  // -- pipeline cycles: cold -> warm unchanged -> 1% churn -----------------
  // A cycle lasts tens of milliseconds, so one scheduler stall on a loaded
  // machine can swing a single cold/warm ratio by more than the gate's
  // margin. As with the sweeps, the gate takes the median of paired ratios;
  // each cold cycle runs on a fresh pipeline, so it pays the plan build and
  // the empty verdict cache every time.
  CachedFibSource fibs(std::move(tables));
  const auto cycle_rate = [&](const rcdc::PipelineStats& stats) {
    return static_cast<double>(stats.devices) /
           std::chrono::duration<double>(stats.wall).count();
  };
  constexpr int kPairs = 7;
  std::vector<double> cold_rates;
  std::vector<double> warm_rates;
  std::vector<double> warm_speedups;
  std::unique_ptr<rcdc::MonitoringPipeline> pipeline;
  rcdc::PipelineStats cold;
  rcdc::PipelineStats warm;
  std::size_t warm_contracts = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    pipeline.reset();  // at most one pipeline's plan and cache alive
    pipeline = std::make_unique<rcdc::MonitoringPipeline>(
        metadata, fibs, rcdc::make_trie_verifier_factory(),
        rcdc::PipelineConfig{.puller_workers = threads,
                             .validator_workers = threads,
                             .fetch_latency_min = std::chrono::microseconds(0),
                             .fetch_latency_max = std::chrono::microseconds(0),
                             .time_scale = 0.0,
                             .seed = 3});
    cold = pipeline->run_cycle();
    warm = pipeline->run_cycle();
    cold_rates.push_back(cycle_rate(cold));
    warm_rates.push_back(cycle_rate(warm));
    warm_speedups.push_back(warm_rates.back() / cold_rates.back());
    warm_contracts = std::max(warm_contracts, warm.contracts_checked);
  }
  fibs.churn(std::max<std::size_t>(1, device_count / 100));
  const auto churn = pipeline->run_cycle();

  const auto median = [](std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
  };
  const double cold_rate = median(cold_rates);
  const double warm_rate = median(warm_rates);
  const double churn_rate = cycle_rate(churn);
  const double warm_speedup = median(warm_speedups);
  const auto [min_speedup, max_speedup] =
      std::minmax_element(warm_speedups.begin(), warm_speedups.end());
  std::printf("pipeline cycles (fetch = table copy, no latency sim; median "
              "of %d pairs):\n",
              kPairs);
  std::printf("  cold  : %9.1f devices/s  (%zu revalidated, %zu contracts)\n",
              cold_rate, cold.devices_revalidated, cold.contracts_checked);
  std::printf("  warm  : %9.1f devices/s  (%zu revalidated, %zu contracts)\n",
              warm_rate, warm.devices_revalidated, warm_contracts);
  std::printf("  churn : %9.1f devices/s  (%zu revalidated of %zu, 1%% "
              "changed)\n",
              churn_rate, churn.devices_revalidated, churn.devices);
  std::printf("  warm speedup vs cold: %.2fx median, %.2f-%.2fx over the "
              "pairs (acceptance floor 3x)\n",
              warm_speedup, *min_speedup, *max_speedup);

  report.workload("devices", static_cast<double>(device_count));
  report.workload("threads", static_cast<double>(threads));
  report.metric("cycle_cold_devices_per_s", "1/s", cold_rates, "higher");
  report.metric("cycle_warm_devices_per_s", "1/s", warm_rates, "higher");
  report.value("cycle_churn_devices_per_s", "1/s", churn_rate, "higher");
  report.metric("warm_speedup_ratio", "x", warm_speedups, "higher");
  report.value("warm_contracts_checked", "contracts",
               static_cast<double>(warm_contracts), "lower");

  const bool pass =
      cold_speedup >= 3.0 && warm_speedup >= 3.0 && warm_contracts == 0;
  std::printf("\nacceptance: cold >= 3x linear %s, warm >= 3x %s, "
              "warm contracts == 0 %s\n",
              cold_speedup >= 3.0 ? "OK" : "FAIL",
              warm_speedup >= 3.0 ? "OK" : "FAIL",
              warm_contracts == 0 ? "OK" : "FAIL");

  if (!json_out.empty() && !report.write(json_out)) return 1;
  return pass ? 0 : 2;
}
