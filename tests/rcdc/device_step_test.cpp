// DeviceStep::recheck, the delta path of the per-device step: on seeded
// random rule mutations of real device tables, rechecking only the
// contracts a changed rule touches must give exactly the verifier's full
// output for the new table — on the trie engine and on the linear one, and
// whether the changed prefixes are given exactly (diff_rules) or as a
// superset with unchanged ones mixed in.
#include "rcdc/device_step.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "rcdc/contract_gen.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/metadata.hpp"

namespace dcv::rcdc {
namespace {

using routing::ForwardingTable;
using routing::Rule;

enum class Mutation {
  kAddInside,        // a more-specific rule inside a contract
  kWithdrawInside,   // drop a rule nested in (or equal to) a contract
  kRehopInside,      // new next hops for a rule nested in a contract
  kCoveringRule,     // add, re-hop or drop a rule containing a contract
  kDefaultRoute,     // re-hop or drop the default route
  kFlipConnected,    // toggle one rule's connected flag
  kNone,
};
constexpr int kMutations = 7;

ForwardingTable without(const ForwardingTable& table,
                        const net::Prefix& prefix) {
  ForwardingTable out;
  for (const Rule& rule : table.rules()) {
    if (rule.prefix != prefix) out.add(rule);
  }
  return out;
}

/// Mutates tables drawn from one fabric: next hops are either a contract's
/// expected set, a piece of it, or random devices.
class Mutator {
 public:
  Mutator(std::uint64_t seed, std::size_t devices)
      : rng_(seed), devices_(devices) {}

  std::mt19937_64& rng() { return rng_; }

  void apply(Mutation mutation, ForwardingTable& table,
             std::span<const Contract> contracts) {
    const Contract& contract = pick_specific(contracts);
    const net::Prefix& range = contract.prefix;
    switch (mutation) {
      case Mutation::kAddInside: {
        const int length =
            std::min(32, range.length() + 1 + static_cast<int>(pick(0, 7)));
        const std::uint32_t host = static_cast<std::uint32_t>(rng_()) &
                                   ~mask(range.length());
        table.add(Rule{.prefix = net::Prefix(
                           net::Ipv4Address(range.network().value() | host),
                           length),
                       .next_hops = hops(contract)});
        return;
      }
      case Mutation::kWithdrawInside:
      case Mutation::kRehopInside: {
        std::vector<net::Prefix> nested;
        for (const Rule& rule : table.rules()) {
          if (range.contains(rule.prefix)) nested.push_back(rule.prefix);
        }
        if (nested.empty()) return;
        const net::Prefix victim = nested[pick(0, nested.size() - 1)];
        if (mutation == Mutation::kWithdrawInside) {
          table = without(table, victim);
        } else {
          table.add(Rule{.prefix = victim, .next_hops = hops(contract)});
        }
        return;
      }
      case Mutation::kCoveringRule: {
        if (range.length() == 0) return;
        const net::Prefix cover(
            range.network(),
            static_cast<int>(pick(1, static_cast<std::size_t>(range.length()) - 1)));
        if (table.find(cover) != nullptr && pick(0, 1) == 0) {
          table = without(table, cover);
        } else {
          table.add(Rule{.prefix = cover, .next_hops = hops(contract)});
        }
        return;
      }
      case Mutation::kDefaultRoute:
        if (table.default_route() != nullptr && pick(0, 1) == 0) {
          table = without(table, net::Prefix::default_route());
        } else {
          table.add(Rule{.prefix = net::Prefix::default_route(),
                         .next_hops = hops(contract)});
        }
        return;
      case Mutation::kFlipConnected: {
        if (table.empty()) return;
        Rule rule = table.rules()[pick(0, table.size() - 1)];
        rule.connected = !rule.connected;
        table.add(std::move(rule));
        return;
      }
      case Mutation::kNone:
        return;
    }
  }

 private:
  static std::uint32_t mask(int length) {
    return length == 0 ? 0 : ~std::uint32_t{0} << (32 - length);
  }

  std::size_t pick(std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng_);
  }

  const Contract& pick_specific(std::span<const Contract> contracts) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const Contract& c = contracts[pick(0, contracts.size() - 1)];
      if (c.kind == ContractKind::kSpecific) return c;
    }
    return contracts.back();
  }

  std::vector<topo::DeviceId> hops(const Contract& contract) {
    std::vector<topo::DeviceId> out = contract.expected_next_hops;
    switch (pick(0, 2)) {
      case 0:
        return out;
      case 1:
        if (!out.empty()) out.resize(pick(1, out.size()));
        return out;
      default:
        out.clear();
        for (std::size_t n = pick(1, 3); n > 0; --n) {
          out.push_back(static_cast<topo::DeviceId>(pick(0, devices_ - 1)));
        }
        return out;
    }
  }

  std::mt19937_64 rng_;
  std::size_t devices_;
};

/// A small fabric with two failed links, so baseline tables already carry
/// violations the delta path must keep.
topo::Topology failed_fabric() {
  topo::Topology topology = topo::build_clos(topo::ClosParams{
      .clusters = 3,
      .tors_per_cluster = 3,
      .leaves_per_cluster = 3,
      .spines_per_plane = 2,
      .regional_spines = 4});
  topology.set_link_state(0, topo::LinkState::kDown);
  topology.set_link_state(
      static_cast<topo::LinkId>(topology.link_count() / 2),
      topo::LinkState::kDown);
  return topology;
}

struct Fabric {
  Fabric()
      : topology(failed_fabric()),
        metadata(topology),
        plan(ContractGenerator(metadata).plan()),
        simulator(topology) {}

  topo::Topology topology;
  topo::MetadataService metadata;
  ContractPlanPtr plan;
  routing::BgpSimulator simulator;
};

/// The changed prefixes recheck() is given: exactly diff_rules(), or that
/// plus unchanged prefixes of `after` (never the default route, which would
/// force a full check), shuffled.
enum class Delta { kExact, kSuperset };

void expect_delta_equals_full(const VerifierFactory& factory,
                              std::uint64_t seed, Delta given) {
  const Fabric fabric;
  StepTally tally;
  const StepMetrics metrics(nullptr);
  DeviceStep step(factory, tally, metrics);
  const std::unique_ptr<Verifier> oracle = factory();
  Mutator mutator(seed, fabric.topology.device_count());

  std::size_t partial = 0;       // rechecks that kept some old verdicts
  std::size_t kept_violations = 0;
  std::size_t supersets = 0;     // trials given unchanged prefixes too
  for (int trial = 0; trial < 700; ++trial) {
    const auto device = static_cast<topo::DeviceId>(
        mutator.rng()() % fabric.topology.device_count());
    const std::span<const Contract> contracts =
        fabric.plan->contracts_for(device);
    if (contracts.empty()) continue;
    ForwardingTable before = fabric.simulator.fib(device);
    for (std::uint64_t n = mutator.rng()() % 3; n > 0; --n) {
      mutator.apply(static_cast<Mutation>(mutator.rng()() % kMutations),
                    before, contracts);
    }
    const std::vector<Violation> before_violations =
        oracle->check(before, contracts, device);
    const auto mutation = static_cast<Mutation>(trial % kMutations);
    ForwardingTable after = before;
    mutator.apply(mutation, after, contracts);

    std::vector<net::Prefix> changed;
    routing::diff_rules(before, after, changed);
    const std::size_t exact = changed.size();
    if (given == Delta::kSuperset && !after.empty()) {
      for (std::uint64_t n = 1 + mutator.rng()() % 3; n > 0; --n) {
        const Rule& rule = after.rules()[mutator.rng()() % after.size()];
        const Rule* old = before.find(rule.prefix);
        if (!rule.prefix.is_default() && old != nullptr && *old == rule) {
          changed.push_back(rule.prefix);
        }
      }
      std::shuffle(changed.begin(), changed.end(), mutator.rng());
    }

    const std::size_t checked_before = tally.contracts_checked.load();
    const std::vector<Violation> delta = step.recheck(
        device, contracts, before_violations, after, changed, false);
    const std::size_t checked =
        tally.contracts_checked.load() - checked_before;
    ASSERT_EQ(delta, oracle->check(after, contracts, device))
        << "trial " << trial << ", mutation " << static_cast<int>(mutation)
        << ", device " << device;
    if (after == before && changed.size() == exact) {
      EXPECT_EQ(checked, 0u) << "trial " << trial;
    }
    supersets += changed.size() > exact ? 1 : 0;
    if (checked < contracts.size()) {
      ++partial;
      kept_violations += before_violations.size();
    }
  }
  // The draw must exercise the merge, including kept violations.
  EXPECT_GT(partial, 100u);
  EXPECT_GT(kept_violations, 0u);
  if (given == Delta::kSuperset) EXPECT_GT(supersets, 300u);
}

TEST(DeviceStepRecheck, DeltaEqualsFullOnTheTrieEngine) {
  expect_delta_equals_full(make_trie_verifier_factory(), 0xD17A,
                           Delta::kExact);
}

TEST(DeviceStepRecheck, DeltaEqualsFullOnTheLinearEngine) {
  expect_delta_equals_full(make_linear_verifier_factory(), 0x11EA,
                           Delta::kExact);
}

TEST(DeviceStepRecheck, SupersetDeltaEqualsFullOnTheTrieEngine) {
  expect_delta_equals_full(make_trie_verifier_factory(), 0x5E7A,
                           Delta::kSuperset);
}

TEST(DeviceStepRecheck, SupersetDeltaEqualsFullOnTheLinearEngine) {
  expect_delta_equals_full(make_linear_verifier_factory(), 0x5E7B,
                           Delta::kSuperset);
}

// An earlier verdict whose violations are not in the verifier's order
// cannot be matched to its contracts: the step checks in full instead.
TEST(DeviceStepRecheck, UnorderedEarlierVerdictIsCheckedInFull) {
  const Fabric fabric;
  const std::unique_ptr<Verifier> oracle = make_trie_verifier_factory()();
  StepTally tally;
  const StepMetrics metrics(nullptr);
  DeviceStep step(make_trie_verifier_factory(), tally, metrics);
  const topo::DeviceId tor =
      fabric.topology.devices_with_role(topo::DeviceRole::kTor).front();
  const std::span<const Contract> contracts = fabric.plan->contracts_for(tor);
  // Every specific contract fails on a table of wrong next hops.
  ForwardingTable before;
  for (const Contract& contract : contracts) {
    before.add(Rule{.prefix = contract.prefix, .next_hops = {tor}});
  }
  std::vector<Violation> reversed = oracle->check(before, contracts, tor);
  ASSERT_GT(reversed.size(), 1u);
  std::reverse(reversed.begin(), reversed.end());
  ForwardingTable after = before;
  after.add(Rule{.prefix = contracts.back().prefix, .next_hops = {}});

  std::vector<net::Prefix> changed;
  routing::diff_rules(before, after, changed);
  const std::vector<Violation> delta =
      step.recheck(tor, contracts, reversed, after, changed, false);
  EXPECT_EQ(delta, oracle->check(after, contracts, tor));
  EXPECT_EQ(tally.contracts_checked.load(), contracts.size());
}

// verify() rechecks a cache miss against the entry's pinned table: the
// verdict equals a full check while only the touched contracts run.
TEST(DeviceStepRecheck, CacheMissRechecksAgainstThePinnedTable) {
  Fabric fabric;
  const std::unique_ptr<Verifier> oracle = make_trie_verifier_factory()();
  StepTally tally;
  const StepMetrics metrics(nullptr);
  VerdictCache cache;
  cache.set_epoch(fabric.plan->epoch(), fabric.topology.device_count());
  DeviceStep step(make_trie_verifier_factory(), tally, metrics, &cache);
  const topo::DeviceId tor =
      fabric.topology.devices_with_role(topo::DeviceRole::kTor).front();
  const std::span<const Contract> contracts = fabric.plan->contracts_for(tor);
  (void)step.verify(tor, contracts, fabric.simulator.fib_handle(tor), false);
  ASSERT_EQ(tally.contracts_checked.load(), contracts.size());

  ForwardingTable changed = fabric.simulator.fib(tor);
  const Contract& target = contracts.back();
  ASSERT_EQ(target.kind, ContractKind::kSpecific);
  changed.add(Rule{.prefix = target.prefix, .next_hops = {}});
  const routing::FibPtr table = routing::share_fib(changed);
  const std::vector<Violation>& verdict =
      step.verify(tor, contracts, table, false);
  EXPECT_EQ(verdict, oracle->check(changed, contracts, tor));
  EXPECT_FALSE(verdict.empty());
  EXPECT_EQ(tally.contracts_checked.load(), contracts.size() + 1);
  EXPECT_EQ(cache.table(tor), table);
}

}  // namespace
}  // namespace dcv::rcdc
