// Verification hot path: what does a monitoring cycle cost when the tables
// are already in hand?
//
// bench_pipeline measures the full Figure 5 pipeline, where (scaled)
// 200-800ms fetches dominate exactly as in production (§2.6.1). This bench
// removes fetching from the picture — tables are precomputed and returned
// by copy, fetch latency simulation is off — to isolate the three
// hot-path optimizations:
//
//   1. cold cycles: a precompiled contract plan (built once per topology
//      epoch, contracts pre-sorted in trie-walk order) plus a reusable
//      flat-trie verifier, vs the legacy path that re-derived contracts
//      per device and built a fresh trie + ran a comparison sort per
//      contract — gated at >= 1.15x. (The floor was 1.3x before the CSR
//      adjacency cache landed: per-device contract derivation is mostly
//      neighbor walks, so the legacy arm gained more from span-based
//      adjacency than the plan arm, which amortizes derivation across the
//      epoch. Both arms are absolutely faster; the ratio compressed to
//      ~1.2-1.3x.);
//   2. warm cycles: fingerprint-based incremental skip — an unchanged
//      device replays its cached verdict without checking a contract;
//   3. churn cycles: 1% of devices change between cycles, the
//      steady-state regime incremental validation is built for.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_io.hpp"
#include "net/interval.hpp"
#include "rcdc/contract_gen.hpp"
#include "rcdc/pipeline.hpp"
#include "rcdc/trie_verifier.hpp"
#include "routing/fib_synthesizer.hpp"
#include "topology/clos_builder.hpp"
#include "trie/prefix_trie.hpp"

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

/// The pre-optimization trie engine, kept verbatim as the cold-path
/// baseline: fresh trie per device, related-set comparison sort per
/// contract. Deliberately NOT the shipping implementation.
class LegacyTrieVerifier final : public rcdc::Verifier {
 public:
  [[nodiscard]] std::vector<rcdc::Violation> check(
      const routing::ForwardingTable& fib,
      std::span<const rcdc::Contract> contracts,
      topo::DeviceId device) override {
    std::vector<rcdc::Violation> violations;
    trie::PrefixTrie<const routing::Rule*> policy;
    for (const routing::Rule& rule : fib.rules()) {
      policy.insert(rule.prefix, &rule);
    }
    for (const rcdc::Contract& contract : contracts) {
      if (contract.kind == rcdc::ContractKind::kDefault) {
        rcdc::check_default_contract(fib, contract, device, violations);
        continue;
      }
      auto candidates = policy.related(contract.prefix);
      std::sort(candidates.begin(), candidates.end(),
                [](const auto& a, const auto& b) {
                  if (a.first.length() != b.first.length()) {
                    return a.first.length() > b.first.length();
                  }
                  return a.first < b.first;
                });
      const auto range =
          net::AddressInterval::from_prefix(contract.prefix);
      net::IntervalSet covered;
      bool complete = false;
      for (const auto& [rule_prefix, rule] : candidates) {
        const auto slice =
            contract.prefix.contains(rule_prefix)
                ? net::AddressInterval::from_prefix(rule_prefix)
                : range;
        if (!covered.covers(slice)) {
          const routing::Rule& r = **rule;
          const bool default_disallowed =
              r.prefix.is_default() && !contract.allow_default_route;
          if (!r.connected && (default_disallowed ||
                               !hops_satisfy(r.next_hops, contract))) {
            violations.push_back(rcdc::Violation{
                .device = device,
                .contract = contract,
                .kind = default_disallowed
                            ? rcdc::ViolationKind::kSpecificViaDefaultRoute
                            : rcdc::ViolationKind::kWrongNextHops,
                .rule_prefix = r.prefix,
                .actual_next_hops = r.next_hops});
          }
        }
        covered.add(slice);
        if (covered.covers(range)) {
          complete = true;
          break;
        }
      }
      if (!complete && !covered.covers(range)) {
        violations.push_back(
            rcdc::Violation{.device = device,
                            .contract = contract,
                            .kind = rcdc::ViolationKind::kUnreachableRange,
                            .rule_prefix = contract.prefix,
                            .actual_next_hops = {}});
      }
    }
    return violations;
  }
};

/// One legacy-shaped cold sweep: per device, re-derive contracts from
/// metadata and check with a fresh-trie engine. Returns wall seconds.
double legacy_sweep(const topo::MetadataService& metadata,
                    const std::vector<routing::ForwardingTable>& tables,
                    unsigned threads, std::atomic<std::size_t>& found) {
  const rcdc::ContractGenerator generator(metadata);
  const auto start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    LegacyTrieVerifier verifier;
    while (true) {
      const std::size_t d = next.fetch_add(1, std::memory_order_relaxed);
      if (d >= tables.size()) break;
      const auto contracts =
          generator.for_device(static_cast<topo::DeviceId>(d));
      if (contracts.empty()) continue;
      const auto violations = verifier.check(
          tables[d], contracts, static_cast<topo::DeviceId>(d));
      found.fetch_add(violations.size(), std::memory_order_relaxed);
    }
  };
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One plan-based cold sweep: shared precompiled plan, reusable flat-trie
/// verifiers. Returns wall seconds.
double plan_sweep(const rcdc::ContractGenerator& generator,
                  const std::vector<routing::ForwardingTable>& tables,
                  unsigned threads, std::atomic<std::size_t>& found) {
  const rcdc::ContractPlanPtr plan = generator.plan();
  const auto start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    rcdc::TrieVerifier verifier;
    while (true) {
      const std::size_t d = next.fetch_add(1, std::memory_order_relaxed);
      if (d >= tables.size()) break;
      const auto contracts =
          plan->contracts_for(static_cast<topo::DeviceId>(d));
      if (contracts.empty()) continue;
      const auto violations = verifier.check(
          tables[d], contracts, static_cast<topo::DeviceId>(d));
      found.fetch_add(violations.size(), std::memory_order_relaxed);
    }
  };
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
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

  // -- cold sweeps: legacy vs plan+reusable-trie, best of 5 ----------------
  // Single-threaded with an untimed warmup: the speedup is a per-device
  // work ratio and holds at any worker count, but a multi-threaded sweep
  // lasting tens of milliseconds lets one scheduler hiccup on a loaded
  // machine swing the ratio by more than the effect being measured.
  double legacy_s = 1e300;
  double plan_s = 1e300;
  std::array<double, 5> paired_speedup{};
  std::atomic<std::size_t> legacy_found{0};
  std::atomic<std::size_t> plan_found{0};
  const rcdc::ContractGenerator generator(metadata);
  legacy_sweep(metadata, tables, 1, legacy_found);  // warmup
  plan_sweep(generator, tables, 1, plan_found);     // warmup
  for (std::size_t run = 0; run < paired_speedup.size(); ++run) {
    legacy_found.store(0);
    plan_found.store(0);
    const double run_legacy = legacy_sweep(metadata, tables, 1, legacy_found);
    const double run_plan = plan_sweep(generator, tables, 1, plan_found);
    legacy_s = std::min(legacy_s, run_legacy);
    plan_s = std::min(plan_s, run_plan);
    paired_speedup[run] = run_legacy / run_plan;
  }
  if (legacy_found.load() != plan_found.load()) {
    std::printf("FATAL: engines disagree (%zu vs %zu violations)\n",
                legacy_found.load(), plan_found.load());
    return 3;
  }
  const double legacy_rate = static_cast<double>(device_count) / legacy_s;
  const double plan_rate = static_cast<double>(device_count) / plan_s;
  // The gated ratio is the median of per-run paired ratios: the two sweeps
  // in one run see the same machine conditions, so a transient stall skews
  // one pair, not the median — unlike min-of-each-side, which can pair a
  // lucky legacy run with an unlucky plan run.
  std::sort(paired_speedup.begin(), paired_speedup.end());
  const double cold_speedup = paired_speedup[paired_speedup.size() / 2];
  std::printf("cold sweep (best of %zu):\n", paired_speedup.size());
  std::printf("  legacy (per-device contracts, fresh trie, std::sort): "
              "%8.1f devices/s\n", legacy_rate);
  std::printf("  plan + reusable flat trie:                            "
              "%8.1f devices/s\n", plan_rate);
  std::printf("  cold speedup: %.2fx (acceptance floor 1.15x)\n\n",
              cold_speedup);
  // Informational: the frozen legacy baseline speeding up or slowing down
  // is machine noise, not a product regression.
  report.value("cold_legacy_devices_per_s", "1/s", legacy_rate, "none");
  report.value("cold_plan_devices_per_s", "1/s", plan_rate, "higher");
  report.value("cold_speedup_ratio", "x", cold_speedup, "higher");

  // -- pipeline cycles: cold -> warm unchanged -> 1% churn -----------------
  CachedFibSource fibs(std::move(tables));
  rcdc::MonitoringPipeline pipeline(
      metadata, fibs, rcdc::make_trie_verifier_factory(),
      rcdc::PipelineConfig{.puller_workers = threads,
                           .validator_workers = threads,
                           .fetch_latency_min = std::chrono::microseconds(0),
                           .fetch_latency_max = std::chrono::microseconds(0),
                           .time_scale = 0.0,
                           .seed = 3});

  const auto cycle_rate = [&](const rcdc::PipelineStats& stats) {
    return static_cast<double>(stats.devices) /
           std::chrono::duration<double>(stats.wall).count();
  };
  const auto cold = pipeline.run_cycle();
  const auto warm = pipeline.run_cycle();
  fibs.churn(std::max<std::size_t>(1, device_count / 100));
  const auto churn = pipeline.run_cycle();

  const double cold_rate = cycle_rate(cold);
  const double warm_rate = cycle_rate(warm);
  const double churn_rate = cycle_rate(churn);
  const double warm_speedup = warm_rate / cold_rate;
  std::printf("pipeline cycles (fetch = table copy, no latency sim):\n");
  std::printf("  cold  : %9.1f devices/s  (%zu revalidated, %zu contracts)\n",
              cold_rate, cold.devices_revalidated, cold.contracts_checked);
  std::printf("  warm  : %9.1f devices/s  (%zu revalidated, %zu contracts)\n",
              warm_rate, warm.devices_revalidated, warm.contracts_checked);
  std::printf("  churn : %9.1f devices/s  (%zu revalidated of %zu, 1%% "
              "changed)\n",
              churn_rate, churn.devices_revalidated, churn.devices);
  std::printf("  warm speedup vs cold: %.2fx (acceptance floor 3x)\n",
              warm_speedup);

  report.workload("devices", static_cast<double>(device_count));
  report.workload("threads", static_cast<double>(threads));
  report.value("cycle_cold_devices_per_s", "1/s", cold_rate, "higher");
  report.value("cycle_warm_devices_per_s", "1/s", warm_rate, "higher");
  report.value("cycle_churn_devices_per_s", "1/s", churn_rate, "higher");
  report.value("warm_speedup_ratio", "x", warm_speedup, "higher");
  report.value("warm_contracts_checked", "contracts",
               static_cast<double>(warm.contracts_checked), "lower");

  const bool pass = cold_speedup >= 1.15 && warm_speedup >= 3.0 &&
                    warm.contracts_checked == 0;
  std::printf("\nacceptance: cold >= 1.15x %s, warm >= 3x %s, "
              "warm contracts == 0 %s\n",
              cold_speedup >= 1.15 ? "OK" : "FAIL",
              warm_speedup >= 3.0 ? "OK" : "FAIL",
              warm.contracts_checked == 0 ? "OK" : "FAIL");

  if (!json_out.empty() && !report.write(json_out)) return 1;
  return pass ? 0 : 2;
}
