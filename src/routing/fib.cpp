#include "routing/fib.hpp"

#include <ostream>

namespace dcv::routing {

namespace {

/// Canonical FIB order: longest prefixes first, then by prefix value.
bool prefix_order(const net::Prefix& a, const net::Prefix& b) {
  if (a.length() != b.length()) return a.length() > b.length();
  return a < b;
}

bool rule_order(const Rule& a, const Rule& b) {
  return prefix_order(a.prefix, b.prefix);
}

}  // namespace

std::string Rule::to_string() const {
  std::string out = prefix.to_string() + " ->";
  if (connected) out += " connected";
  for (const auto hop : next_hops) out += " " + std::to_string(hop);
  return out;
}

std::ostream& operator<<(std::ostream& os, const Rule& rule) {
  return os << rule.to_string();
}

void ForwardingTable::add(Rule rule) {
  canonicalize(rule.next_hops);
  const auto insert_at =
      std::lower_bound(rules_.begin(), rules_.end(), rule, rule_order);
  if (insert_at != rules_.end() && insert_at->prefix == rule.prefix) {
    *insert_at = std::move(rule);
  } else {
    rules_.insert(insert_at, std::move(rule));
  }
}

const Rule* ForwardingTable::lookup(net::Ipv4Address destination) const {
  // Rules are sorted longest-first, so the first containing rule is the
  // longest-prefix match.
  for (const Rule& rule : rules_) {
    if (rule.prefix.contains(destination)) return &rule;
  }
  return nullptr;
}

const Rule* ForwardingTable::find(const net::Prefix& prefix) const {
  const Rule probe{.prefix = prefix, .next_hops = {}, .connected = false};
  const auto it =
      std::lower_bound(rules_.begin(), rules_.end(), probe, rule_order);
  if (it != rules_.end() && it->prefix == prefix) return &*it;
  return nullptr;
}

void diff_rules(const ForwardingTable& before, const ForwardingTable& after,
                std::vector<net::Prefix>& changed) {
  auto b = before.rules().begin();
  auto a = after.rules().begin();
  const auto b_end = before.rules().end();
  const auto a_end = after.rules().end();
  while (b != b_end || a != a_end) {
    if (a == a_end || (b != b_end && rule_order(*b, *a))) {
      changed.push_back((b++)->prefix);  // withdrawn
    } else if (b == b_end || rule_order(*a, *b)) {
      changed.push_back((a++)->prefix);  // added
    } else {
      if (*a != *b) changed.push_back(a->prefix);  // re-hopped
      ++a;
      ++b;
    }
  }
}

}  // namespace dcv::routing
