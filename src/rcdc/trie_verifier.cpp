#include "rcdc/trie_verifier.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#include "net/interval.hpp"

namespace dcv::rcdc {

bool check_default_contract(const routing::ForwardingTable& fib,
                            const Contract& contract, topo::DeviceId device,
                            std::vector<Violation>& out) {
  const routing::Rule* def = fib.default_route();
  if (def == nullptr) {
    out.push_back(Violation{.device = device,
                            .contract = contract,
                            .kind = ViolationKind::kMissingDefaultRoute,
                            .rule_prefix = net::Prefix::default_route(),
                            .actual_next_hops = {}});
    return true;
  }
  if (!hops_satisfy(def->next_hops, contract)) {
    out.push_back(Violation{.device = device,
                            .contract = contract,
                            .kind = ViolationKind::kDefaultRouteMismatch,
                            .rule_prefix = net::Prefix::default_route(),
                            .actual_next_hops = def->next_hops});
    return true;
  }
  return false;
}

std::vector<Violation> TrieVerifier::check(
    const routing::ForwardingTable& fib, std::span<const Contract> contracts,
    topo::DeviceId device) {
  std::vector<Violation> violations;

  // The rules are sorted longest first, then by network: the rules of
  // length L are [below[L + 1], below[L]), where below[L] counts the rules
  // of length >= L.
  const std::vector<routing::Rule>& rules = fib.rules();
  std::array<std::size_t, 34> below{};
  for (int length = 32; length >= 0; --length) {
    below[length] = static_cast<std::size_t>(
        std::partition_point(rules.begin() + below[length + 1], rules.end(),
                             [length](const routing::Rule& rule) {
                               return rule.prefix.length() >= length;
                             }) -
        rules.begin());
  }
  const auto by_network = [](const routing::Rule& rule,
                             std::uint32_t network) {
    return rule.prefix.network().value() < network;
  };

  for (const Contract& contract : contracts) {
    if (contract.kind == ContractKind::kDefault) {
      check_default_contract(fib, contract, device, violations);
      continue;
    }

    const auto range = net::AddressInterval::from_prefix(contract.prefix);
    const std::uint32_t lo = contract.prefix.first().value();
    const std::uint32_t hi = contract.prefix.last().value();
    net::IntervalSet covered;  // the list L of §2.5.2, as an interval union
    bool complete = false;
    std::uint64_t walked = 0;
    // Walks one candidate rule; true once the walked rules cover the range
    // (the stop condition of §2.5.2).
    const auto walk = [&](const routing::Rule& rule) {
      ++walked;
      // The slice of the contract range this rule can match: the rule's
      // prefix if it nests inside the range, the whole range otherwise
      // (prefixes never partially overlap).
      const auto slice = contract.prefix.contains(rule.prefix)
                             ? net::AddressInterval::from_prefix(rule.prefix)
                             : range;
      // Longer rules walked earlier may already shadow this rule within the
      // contract range; a shadowed rule cannot violate the contract.
      if (!covered.covers(slice)) {
        const bool default_disallowed =
            rule.prefix.is_default() && !contract.allow_default_route;
        if (!rule.connected &&
            (default_disallowed || !hops_satisfy(rule.next_hops, contract))) {
          violations.push_back(Violation{
              .device = device,
              .contract = contract,
              .kind = default_disallowed
                          ? ViolationKind::kSpecificViaDefaultRoute
                          : ViolationKind::kWrongNextHops,
              .rule_prefix = rule.prefix,
              .actual_next_hops = rule.next_hops});
        }
      }
      covered.add(slice);
      return covered.covers(range);
    };

    // The related rules of length L have their network in [lo, hi] masked
    // to L: for L at least the contract's length, the run of bucket L
    // inside the range; for a shorter L, the one rule that covers it.
    for (int length = 32; length >= 0 && !complete; --length) {
      const std::uint32_t mask =
          length == 0 ? 0 : ~std::uint32_t{0} << (32 - length);
      const auto last = rules.begin() + below[length];
      auto it = std::lower_bound(rules.begin() + below[length + 1], last,
                                 lo & mask, by_network);
      for (; !complete && it != last &&
             it->prefix.network().value() <= (hi & mask);
           ++it) {
        complete = walk(*it);
      }
    }
    if (!complete) {
      violations.push_back(Violation{.device = device,
                                     .contract = contract,
                                     .kind = ViolationKind::kUnreachableRange,
                                     .rule_prefix = contract.prefix,
                                     .actual_next_hops = {}});
    }
    if (rules_walked_ != nullptr) rules_walked_->observe(walked);
  }
  return violations;
}

}  // namespace dcv::rcdc
