// Differential property test: the trie engine and the linear-scan baseline
// must agree *exactly*, in emission order, on randomized inputs. The two
// implementations share no traversal code — the trie engine binary-searches
// the sorted table for each length's related run and early-exits on
// interval coverage, the linear engine scans the whole FIB — so agreement
// over thousands of seeded random FIB/contract pairs is strong evidence
// that the trie engine's candidate collection, walk order, shadowing logic,
// and stop condition are all faithful. The order matters:
// DeviceStep::recheck splices rechecked contracts' violations back in
// verifier order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "net/interval.hpp"
#include "obs/metrics.hpp"
#include "rcdc/linear_verifier.hpp"
#include "rcdc/trie_verifier.hpp"

namespace dcv::rcdc {
namespace {

using net::Ipv4Address;
using net::Prefix;

Prefix random_prefix(std::mt19937_64& rng) {
  // Every length from the /0 default to /32 host routes.
  std::uniform_int_distribution<int> length(0, 32);
  std::uniform_int_distribution<std::uint32_t> bits(0, 0xFFFFFFFFu);
  // Small address pool => dense nesting/overlap between rules and contracts.
  const std::uint32_t base = 0x0A000000u | (bits(rng) & 0x0003FFFFu);
  return Prefix(Ipv4Address(base), length(rng));
}

std::vector<topo::DeviceId> random_hops(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> count(0, 3);
  std::uniform_int_distribution<topo::DeviceId> hop(1, 6);
  std::vector<topo::DeviceId> hops;
  for (int i = count(rng); i > 0; --i) hops.push_back(hop(rng));
  std::sort(hops.begin(), hops.end());
  hops.erase(std::unique(hops.begin(), hops.end()), hops.end());
  return hops;
}

routing::ForwardingTable random_fib(std::mt19937_64& rng) {
  routing::ForwardingTable fib;
  std::uniform_int_distribution<int> rule_count(0, 24);
  std::bernoulli_distribution with_default(0.8);
  std::bernoulli_distribution connected(0.1);
  if (with_default(rng)) {
    fib.add(routing::Rule{.prefix = Prefix::default_route(),
                          .next_hops = random_hops(rng)});
  }
  for (int i = rule_count(rng); i > 0; --i) {
    fib.add(routing::Rule{.prefix = random_prefix(rng),
                          .next_hops = random_hops(rng),
                          .connected = connected(rng)});
  }
  return fib;
}

std::vector<Contract> random_contracts(std::mt19937_64& rng,
                                       const routing::ForwardingTable& fib) {
  std::vector<Contract> contracts;
  std::bernoulli_distribution with_default(0.7);
  std::bernoulli_distribution from_fib(0.5);
  std::bernoulli_distribution subset_mode(0.2);
  std::bernoulli_distribution allow_default(0.3);
  std::uniform_int_distribution<int> count(1, 8);
  if (with_default(rng)) {
    auto hops = random_hops(rng);
    const std::size_t n = hops.size();
    contracts.push_back(Contract{.kind = ContractKind::kDefault,
                                 .prefix = Prefix::default_route(),
                                 .expected_next_hops = std::move(hops),
                                 .mode = MatchMode::kExactSet,
                                 .min_next_hops = n});
  }
  for (int i = count(rng); i > 0; --i) {
    // Half the contracts target prefixes the FIB actually holds (so exact
    // matches, shadowing, and nesting all get exercised), half are fresh
    // random ranges (unreachable/partially-covered cases).
    Prefix prefix = random_prefix(rng);
    if (from_fib(rng) && !fib.rules().empty()) {
      std::uniform_int_distribution<std::size_t> pick(0,
                                                      fib.rules().size() - 1);
      prefix = fib.rules()[pick(rng)].prefix;
    }
    if (prefix.is_default()) continue;  // default handled above
    auto hops = random_hops(rng);
    const bool subset = subset_mode(rng) && !hops.empty();
    contracts.push_back(Contract{
        .kind = ContractKind::kSpecific,
        .prefix = prefix,
        .expected_next_hops = std::move(hops),
        .mode = subset ? MatchMode::kSubsetAtLeast : MatchMode::kExactSet,
        .min_next_hops = 1,
        .allow_default_route = allow_default(rng)});
  }
  return contracts;
}

/// Adds, for each specific contract, rules of random lengths at least the
/// contract's whose networks sit just below its first address and just
/// above its last: the nearest same-length neighbours of the run of rules
/// the contract contains, which the walk must stop short of.
void add_boundary_rules(std::mt19937_64& rng, routing::ForwardingTable& fib,
                        const std::vector<Contract>& contracts) {
  std::bernoulli_distribution connected(0.1);
  for (const Contract& contract : contracts) {
    if (contract.kind != ContractKind::kSpecific) continue;
    std::uniform_int_distribution<int> length(contract.prefix.length(), 32);
    const std::uint32_t lo = contract.prefix.first().value();
    const std::uint32_t hi = contract.prefix.last().value();
    if (lo > 0) {
      fib.add(routing::Rule{.prefix = Prefix(Ipv4Address(lo - 1), length(rng)),
                            .next_hops = random_hops(rng),
                            .connected = connected(rng)});
    }
    if (hi < std::numeric_limits<std::uint32_t>::max()) {
      fib.add(routing::Rule{.prefix = Prefix(Ipv4Address(hi + 1), length(rng)),
                            .next_hops = random_hops(rng),
                            .connected = connected(rng)});
    }
  }
}

/// The §2.5.2 walk length by brute force: the related rules in fib.rules()
/// order, up to and including the one after which they cover the range.
std::uint64_t brute_force_walked(const routing::ForwardingTable& fib,
                                 const Contract& contract) {
  const auto range = net::AddressInterval::from_prefix(contract.prefix);
  net::IntervalSet covered;
  std::uint64_t walked = 0;
  for (const routing::Rule& rule : fib.rules()) {
    if (!rule.prefix.overlaps(contract.prefix)) continue;
    ++walked;
    covered.add(contract.prefix.contains(rule.prefix)
                    ? net::AddressInterval::from_prefix(rule.prefix)
                    : range);
    if (covered.covers(range)) break;
  }
  return walked;
}

TEST(DifferentialVerification, TrieAgreesWithLinearOnRandomInputs) {
  std::mt19937_64 rng(0xD1FFu);
  TrieVerifier trie;  // one instance each, reused across every iteration
  LinearVerifier linear;
  for (int iteration = 0; iteration < 2000; ++iteration) {
    routing::ForwardingTable fib = random_fib(rng);
    const std::vector<Contract> contracts = random_contracts(rng, fib);
    add_boundary_rules(rng, fib, contracts);
    const auto device = static_cast<topo::DeviceId>(iteration % 7);
    ASSERT_EQ(trie.check(fib, contracts, device),
              linear.check(fib, contracts, device))
        << "engines diverged at iteration " << iteration;
  }
}

TEST(DifferentialVerification, RulesWalkedMatchesBruteForceCount) {
  std::mt19937_64 rng(0x3A1Cu);
  obs::Histogram walked;
  TrieVerifier trie(&walked);
  for (int iteration = 0; iteration < 500; ++iteration) {
    routing::ForwardingTable fib = random_fib(rng);
    const std::vector<Contract> contracts = random_contracts(rng, fib);
    add_boundary_rules(rng, fib, contracts);
    for (const Contract& contract : contracts) {
      const std::uint64_t count_before = walked.count();
      const std::uint64_t sum_before = walked.sum();
      (void)trie.check(fib, std::span(&contract, 1), /*device=*/0);
      if (contract.kind == ContractKind::kDefault) {
        ASSERT_EQ(walked.count(), count_before);  // no walk, no sample
        continue;
      }
      ASSERT_EQ(walked.count(), count_before + 1);
      ASSERT_EQ(walked.sum() - sum_before, brute_force_walked(fib, contract))
          << "iteration " << iteration << ", contract "
          << contract.prefix.to_string();
    }
  }
}

TEST(DifferentialVerification, ReusedVerifierMatchesFreshInstances) {
  // A verifier keeps no state between checks that shows: one that has
  // processed many unrelated FIBs answers exactly like a brand-new one.
  std::mt19937_64 rng(0xBEEFu);
  TrieVerifier reused;
  for (int iteration = 0; iteration < 300; ++iteration) {
    const routing::ForwardingTable fib = random_fib(rng);
    const std::vector<Contract> contracts = random_contracts(rng, fib);
    TrieVerifier fresh;
    auto from_reused = reused.check(fib, contracts, /*device=*/0);
    auto from_fresh = fresh.check(fib, contracts, /*device=*/0);
    ASSERT_EQ(from_reused, from_fresh)
        << "reuse changed results at iteration " << iteration;
  }
}

}  // namespace
}  // namespace dcv::rcdc
