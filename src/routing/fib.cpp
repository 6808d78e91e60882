#include "routing/fib.hpp"

#include <array>
#include <numeric>
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

ForwardingTable::ForwardingTable(std::vector<Rule> rules) {
  // Counting sort by length, longest first: bucket k holds /(32 - k), and
  // next[k] is its next free slot — its end once every rule is placed.
  std::array<std::size_t, 33> next{};
  for (Rule& rule : rules) {
    canonicalize(rule.next_hops);
    ++next[32 - rule.prefix.length()];
  }
  std::exclusive_scan(next.begin(), next.end(), next.begin(), std::size_t{0});
  rules_.resize(rules.size());
  for (Rule& rule : rules) {
    rules_[next[32 - rule.prefix.length()]++] = std::move(rule);
  }
  // Each bucket holds its rules in input order; sort only the ones that are
  // not already ascending (stably, so a repeated prefix keeps input order).
  auto first = rules_.begin();
  for (const std::size_t end : next) {
    const auto last = rules_.begin() + static_cast<std::ptrdiff_t>(end);
    if (!std::is_sorted(first, last, rule_order)) {
      std::stable_sort(first, last, rule_order);
    }
    first = last;
  }
  // Of each run of one prefix, the last rule wins.
  auto out = rules_.begin();
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if (std::next(it) != rules_.end() && std::next(it)->prefix == it->prefix) {
      continue;
    }
    if (out != it) *out = std::move(*it);
    ++out;
  }
  rules_.erase(out, rules_.end());
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
