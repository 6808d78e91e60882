#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/prefix.hpp"
#include "topology/device.hpp"

namespace dcv::routing {

/// A single FIB entry: destination prefix plus the set of ECMP next hops.
/// Next hops are stored as sorted, deduplicated device ids.
struct Rule {
  net::Prefix prefix;
  std::vector<topo::DeviceId> next_hops;

  /// True for locally-attached destinations (a ToR's own VLAN prefix):
  /// traffic is delivered below this device rather than forwarded to a
  /// routing next hop.
  bool connected = false;

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const Rule&, const Rule&) = default;
};

/// The forwarding information base of one device (§2.2): rules sorted by
/// descending prefix length (canonical longest-prefix-match order), with
/// deterministic tie-breaking by prefix value.
///
/// This is the "reality" object of the paper: everything RCDC checks is a
/// function of per-device ForwardingTables plus contracts.
class ForwardingTable {
 public:
  ForwardingTable() = default;

  /// Builds a table from rules in any order, as add() of each in turn
  /// would: next hops canonicalized, and of two rules with the same prefix
  /// the later one kept. A stable bucket by prefix length puts rules in
  /// canonical order in one pass, so input already sorted by prefix value
  /// within each length (a RIB's order, or this table's own) costs O(n).
  explicit ForwardingTable(std::vector<Rule> rules);

  /// Adds a rule. Next hops are sorted and deduplicated; inserting a second
  /// rule with the same prefix replaces the first (a FIB has at most one
  /// entry per prefix).
  void add(Rule rule);

  /// Longest-prefix-match lookup (Definition 2.1). Returns nullptr when no
  /// rule matches — i.e. the packet is dropped. Note a default route, when
  /// present, matches everything.
  [[nodiscard]] const Rule* lookup(net::Ipv4Address destination) const;

  /// The rule for exactly this prefix, if present.
  [[nodiscard]] const Rule* find(const net::Prefix& prefix) const;

  /// The 0.0.0.0/0 entry, if present.
  [[nodiscard]] const Rule* default_route() const {
    return find(net::Prefix::default_route());
  }

  /// Rules in canonical order: descending prefix length, then prefix value.
  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }

  [[nodiscard]] std::size_t size() const { return rules_.size(); }
  [[nodiscard]] bool empty() const { return rules_.empty(); }

  friend bool operator==(const ForwardingTable&,
                         const ForwardingTable&) = default;

  /// Moves the rules out, each keeping its next-hop storage, so a caller
  /// that builds many tables in turn can hand them to the next build.
  [[nodiscard]] std::vector<Rule> release() && { return std::move(rules_); }

 private:
  std::vector<Rule> rules_;
};

/// Appends to `changed` the prefix of every rule that differs between two
/// tables: present in only one of them, or in both with other next hops or
/// another connected flag. One merge walk over the two canonically sorted
/// rule vectors, O(|before| + |after|); the prefixes come out in canonical
/// order.
void diff_rules(const ForwardingTable& before, const ForwardingTable& after,
                std::vector<net::Prefix>& changed);

/// A shared, immutable handle to one device's FIB. Handles are how tables
/// move between layers (simulator cache → fetch decorators → validators)
/// without copying; two handles to the same object mean the same content.
using FibPtr = std::shared_ptr<const ForwardingTable>;

/// Moves a freshly built table behind a handle.
[[nodiscard]] inline FibPtr share_fib(ForwardingTable table) {
  return std::make_shared<const ForwardingTable>(std::move(table));
}

/// Canonicalizes a next-hop set: sorted ascending, duplicates removed.
inline void canonicalize(std::vector<topo::DeviceId>& next_hops) {
  if (std::adjacent_find(next_hops.begin(), next_hops.end(),
                         std::greater_equal<>()) == next_hops.end()) {
    return;  // already strictly ascending
  }
  std::sort(next_hops.begin(), next_hops.end());
  next_hops.erase(std::unique(next_hops.begin(), next_hops.end()),
                  next_hops.end());
}

std::ostream& operator<<(std::ostream& os, const Rule& rule);

}  // namespace dcv::routing
