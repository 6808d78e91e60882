// Experiment C2 (DESIGN.md): verification-engine ablation.
//
// Paper claims reproduced in shape:
//  * §2.5: the Z3 bit-vector engine verifies a device's routing table
//    "within a second";
//  * §2.5.2/§2.6.3: the specialized engine is much faster — "RCDC takes
//    180ms to verify all contracts on a single device on average",
//    enabling datacenter-scale validation on modest CPU resources. Here
//    the specialized engine is TrieVerifier, which runs the hash-trie's
//    related-rule walk as binary searches over the sorted table.
//
// Each benchmark verifies *all* contracts of one ToR whose FIB holds
// `range` rules (one route per hosted prefix, as in production).
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "rcdc/contract_gen.hpp"
#include "rcdc/linear_verifier.hpp"
#include "rcdc/smt_verifier.hpp"
#include "rcdc/trie_verifier.hpp"
#include "routing/fib_synthesizer.hpp"
#include "topology/clos_builder.hpp"

namespace {

using namespace dcv;

/// A single ToR's workload in a datacenter sized to give its FIB roughly
/// `rules` entries.
struct DeviceWorkload {
  routing::ForwardingTable fib;
  std::vector<rcdc::Contract> contracts;
  topo::DeviceId device;
};

DeviceWorkload make_workload(std::int64_t rules) {
  const auto tors_per_cluster = 8u;
  const topo::ClosParams params{
      .clusters = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(rules) / tors_per_cluster),
      .tors_per_cluster = tors_per_cluster,
      .leaves_per_cluster = 4,
      .spines_per_plane = 1,
      .regional_spines = 4};
  static std::map<std::int64_t, std::unique_ptr<topo::Topology>> cache;
  auto& topology = cache[rules];
  if (!topology) {
    topology = std::make_unique<topo::Topology>(topo::build_clos(params));
  }
  const topo::MetadataService metadata(*topology);
  const routing::FibSynthesizer synthesizer(metadata);
  const rcdc::ContractGenerator generator(metadata);
  const auto tor = topology->devices_with_role(topo::DeviceRole::kTor)[0];
  return DeviceWorkload{.fib = synthesizer.fib(tor),
                        .contracts = generator.for_device(tor),
                        .device = tor};
}

void BM_TrieVerifier_Device(benchmark::State& state) {
  const DeviceWorkload workload = make_workload(state.range(0));
  rcdc::TrieVerifier verifier;
  for (auto _ : state) {
    auto violations =
        verifier.check(workload.fib, workload.contracts, workload.device);
    benchmark::DoNotOptimize(violations);
  }
  state.counters["rules"] = static_cast<double>(workload.fib.size());
  state.counters["contracts"] =
      static_cast<double>(workload.contracts.size());
  state.counters["contracts/s"] = benchmark::Counter(
      static_cast<double>(workload.contracts.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_TrieVerifier_Device)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(9216)
    ->Unit(benchmark::kMillisecond);

/// Same semantics as the trie engine, candidates found by a linear scan:
/// quantifies what an index over the policy (§2.5.2) buys.
void BM_LinearVerifier_Device(benchmark::State& state) {
  const DeviceWorkload workload = make_workload(state.range(0));
  rcdc::LinearVerifier verifier;
  for (auto _ : state) {
    auto violations =
        verifier.check(workload.fib, workload.contracts, workload.device);
    benchmark::DoNotOptimize(violations);
  }
  state.counters["rules"] = static_cast<double>(workload.fib.size());
  state.counters["contracts"] =
      static_cast<double>(workload.contracts.size());
}
BENCHMARK(BM_LinearVerifier_Device)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(9216)
    ->Unit(benchmark::kMillisecond);

void BM_SmtVerifier_Device(benchmark::State& state) {
  const DeviceWorkload workload = make_workload(state.range(0));
  rcdc::SmtVerifier verifier;
  for (auto _ : state) {
    auto violations =
        verifier.check(workload.fib, workload.contracts, workload.device);
    benchmark::DoNotOptimize(violations);
  }
  state.counters["rules"] = static_cast<double>(workload.fib.size());
  state.counters["contracts"] =
      static_cast<double>(workload.contracts.size());
}
BENCHMARK(BM_SmtVerifier_Device)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/// The paper-literal Definition 2.1 encoding: one satisfiability query for
/// one contract against the whole policy.
void BM_SmtMonolithic_Contract(benchmark::State& state) {
  const DeviceWorkload workload = make_workload(state.range(0));
  rcdc::SmtVerifier verifier;
  // Pick a mid-table specific contract.
  const rcdc::Contract& contract =
      workload.contracts[workload.contracts.size() / 2];
  for (auto _ : state) {
    auto violation = verifier.check_contract_monolithic(workload.fib,
                                                        contract,
                                                        workload.device);
    benchmark::DoNotOptimize(violation);
  }
  state.counters["rules"] = static_cast<double>(workload.fib.size());
}
BENCHMARK(BM_SmtMonolithic_Contract)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// Per-contract cost of the trie engine in isolation (the specialized
/// algorithm's inner loop).
void BM_TrieVerifier_SingleContract(benchmark::State& state) {
  const DeviceWorkload workload = make_workload(state.range(0));
  rcdc::TrieVerifier verifier;
  const std::span<const rcdc::Contract> one(
      &workload.contracts[workload.contracts.size() / 2], 1);
  for (auto _ : state) {
    auto violations = verifier.check(workload.fib, one, workload.device);
    benchmark::DoNotOptimize(violations);
  }
  state.counters["rules"] = static_cast<double>(workload.fib.size());
}
BENCHMARK(BM_TrieVerifier_SingleContract)
    ->Arg(1024)
    ->Arg(9216)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
