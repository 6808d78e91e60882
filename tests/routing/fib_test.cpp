#include "routing/fib.hpp"

#include <gtest/gtest.h>

#include <random>

namespace dcv::routing {
namespace {

Rule rule(const char* prefix, std::vector<topo::DeviceId> hops) {
  return Rule{.prefix = net::Prefix::parse(prefix),
              .next_hops = std::move(hops)};
}

TEST(ForwardingTable, RulesSortedLongestFirst) {
  ForwardingTable fib;
  fib.add(rule("0.0.0.0/0", {1}));
  fib.add(rule("10.0.0.0/8", {2}));
  fib.add(rule("10.0.0.0/24", {3}));
  ASSERT_EQ(fib.size(), 3u);
  EXPECT_EQ(fib.rules()[0].prefix.length(), 24);
  EXPECT_EQ(fib.rules()[1].prefix.length(), 8);
  EXPECT_EQ(fib.rules()[2].prefix.length(), 0);
}

TEST(ForwardingTable, LongestPrefixMatchWins) {
  ForwardingTable fib;
  fib.add(rule("0.0.0.0/0", {1}));
  fib.add(rule("10.0.0.0/8", {2}));
  fib.add(rule("10.3.129.224/28", {3}));
  EXPECT_EQ(fib.lookup(net::Ipv4Address::parse("10.3.129.230"))->next_hops,
            std::vector<topo::DeviceId>{3});
  EXPECT_EQ(fib.lookup(net::Ipv4Address::parse("10.3.129.240"))->next_hops,
            std::vector<topo::DeviceId>{2});
  EXPECT_EQ(fib.lookup(net::Ipv4Address::parse("11.0.0.1"))->next_hops,
            std::vector<topo::DeviceId>{1});
}

TEST(ForwardingTable, NoMatchMeansDrop) {
  ForwardingTable fib;
  fib.add(rule("10.0.0.0/8", {2}));
  EXPECT_EQ(fib.lookup(net::Ipv4Address::parse("11.0.0.1")), nullptr);
}

TEST(ForwardingTable, NextHopsCanonicalized) {
  ForwardingTable fib;
  fib.add(rule("10.0.0.0/8", {5, 3, 3, 1}));
  EXPECT_EQ(fib.find(net::Prefix::parse("10.0.0.0/8"))->next_hops,
            (std::vector<topo::DeviceId>{1, 3, 5}));
}

TEST(ForwardingTable, DuplicatePrefixReplaces) {
  ForwardingTable fib;
  fib.add(rule("10.0.0.0/8", {1}));
  fib.add(rule("10.0.0.0/8", {2}));
  EXPECT_EQ(fib.size(), 1u);
  EXPECT_EQ(fib.find(net::Prefix::parse("10.0.0.0/8"))->next_hops,
            std::vector<topo::DeviceId>{2});
}

// exchange() and extract() patch a table in place and undo it: the
// precheck session's patch of a baseline table and its restore.
TEST(ForwardingTable, ExchangeAndExtractPatchAndRestore) {
  ForwardingTable fib;
  fib.add(rule("0.0.0.0/0", {1}));
  fib.add(rule("10.0.0.0/24", {2}));
  fib.add(rule("10.0.1.0/24", {3}));
  const ForwardingTable original = fib;

  Rule replaced = rule("10.0.0.0/24", {5, 4});
  EXPECT_TRUE(fib.exchange(replaced));
  EXPECT_EQ(replaced, rule("10.0.0.0/24", {2}));  // the displaced rule
  Rule inserted = rule("10.0.2.0/25", {6});
  EXPECT_FALSE(fib.exchange(inserted));
  Rule removed;
  EXPECT_TRUE(fib.extract(net::Prefix::parse("10.0.1.0/24"), removed));
  EXPECT_EQ(removed, rule("10.0.1.0/24", {3}));
  EXPECT_FALSE(fib.extract(net::Prefix::parse("10.9.0.0/16"), removed));

  ForwardingTable expected;
  expected.add(rule("0.0.0.0/0", {1}));
  expected.add(rule("10.0.0.0/24", {4, 5}));
  expected.add(rule("10.0.2.0/25", {6}));
  EXPECT_EQ(fib, expected);

  EXPECT_TRUE(fib.exchange(replaced));
  EXPECT_TRUE(fib.extract(net::Prefix::parse("10.0.2.0/25"), inserted));
  EXPECT_FALSE(fib.exchange(removed));
  EXPECT_EQ(fib, original);
}

TEST(ForwardingTable, DefaultRouteAccessor) {
  ForwardingTable fib;
  EXPECT_EQ(fib.default_route(), nullptr);
  fib.add(rule("0.0.0.0/0", {7}));
  ASSERT_NE(fib.default_route(), nullptr);
  EXPECT_EQ(fib.default_route()->next_hops, std::vector<topo::DeviceId>{7});
}

TEST(ForwardingTable, FindIsExactMatch) {
  ForwardingTable fib;
  fib.add(rule("10.0.0.0/8", {1}));
  EXPECT_NE(fib.find(net::Prefix::parse("10.0.0.0/8")), nullptr);
  EXPECT_EQ(fib.find(net::Prefix::parse("10.0.0.0/9")), nullptr);
  EXPECT_EQ(fib.find(net::Prefix::parse("10.0.0.0/24")), nullptr);
}

TEST(ForwardingTable, ConnectedRule) {
  ForwardingTable fib;
  fib.add(Rule{.prefix = net::Prefix::parse("10.0.0.0/24"),
               .next_hops = {},
               .connected = true});
  const Rule* hit = fib.lookup(net::Ipv4Address::parse("10.0.0.1"));
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->connected);
}

/// Property: lookup agrees with a brute-force longest-prefix scan.
TEST(ForwardingTableProperty, LookupMatchesBruteForce) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<std::uint32_t> addr;
  std::uniform_int_distribution<int> len(4, 28);
  for (int trial = 0; trial < 30; ++trial) {
    ForwardingTable fib;
    for (int i = 0; i < 60; ++i) {
      Rule r = rule("0.0.0.0/0", {static_cast<topo::DeviceId>(i)});
      r.prefix = net::Prefix(
          net::Ipv4Address((addr(rng) & 0x0FFFFFFFu) | 0x0A000000u),
          len(rng));
      fib.add(r);
    }
    for (int probe = 0; probe < 200; ++probe) {
      const net::Ipv4Address a((addr(rng) & 0x0FFFFFFFu) | 0x0A000000u);
      const Rule* got = fib.lookup(a);
      const Rule* expected = nullptr;
      for (const Rule& r : fib.rules()) {
        if (r.prefix.contains(a) &&
            (expected == nullptr ||
             r.prefix.length() > expected->prefix.length())) {
          expected = &r;
        }
      }
      EXPECT_EQ(got, expected);
    }
  }
}

// The bulk constructor is add() of each rule in turn: canonical order,
// canonical hops, and the last rule of a repeated prefix kept, whatever the
// input order (shuffled, RIB order, or already canonical).
TEST(ForwardingTable, BulkBuildEqualsRuleByRuleAdd) {
  std::mt19937_64 rng(0xB0CC);
  std::uniform_int_distribution<std::uint32_t> addr;
  std::uniform_int_distribution<int> len(0, 32);
  std::uniform_int_distribution<int> hop(0, 9);
  std::uniform_int_distribution<int> hop_count(0, 5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Rule> rules;
    const int n = trial % 40;
    for (int i = 0; i < n; ++i) {
      Rule r;
      // A narrow address pool makes repeated prefixes common.
      r.prefix = net::Prefix(net::Ipv4Address(addr(rng) & 0xC0C00000u),
                             len(rng) % (trial % 3 == 0 ? 3 : 33));
      for (int h = hop_count(rng); h > 0; --h) r.next_hops.push_back(hop(rng));
      r.connected = hop(rng) == 0;
      rules.push_back(r);
    }
    ForwardingTable by_add;
    for (const Rule& r : rules) by_add.add(r);
    EXPECT_EQ(ForwardingTable(rules), by_add) << "trial " << trial;

    std::vector<Rule> rib_order = rules;
    std::stable_sort(rib_order.begin(), rib_order.end(),
                     [](const Rule& a, const Rule& b) {
                       return a.prefix < b.prefix;
                     });
    ForwardingTable rib_add;
    for (const Rule& r : rib_order) rib_add.add(r);
    EXPECT_EQ(ForwardingTable(rib_order), rib_add) << "trial " << trial;
    EXPECT_EQ(ForwardingTable(by_add.rules()), by_add) << "trial " << trial;
  }
}

TEST(Rule, ToStringIncludesHops) {
  // Rule itself preserves insertion order; canonicalization happens on
  // ForwardingTable::add.
  const Rule r = rule("10.0.0.0/8", {2, 1});
  EXPECT_EQ(r.to_string(), "10.0.0.0/8 -> 2 1");
}

}  // namespace
}  // namespace dcv::routing
