#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "net/prefix.hpp"
#include "topology/device.hpp"

namespace dcv::rcdc {

/// The two contract types of §2.4: a *specific* contract constrains the
/// forwarding of one concrete hosted prefix; a *default* contract
/// constrains the default route — its prefix field is 0.0.0.0/0 but it
/// refers to the complement of all specific prefixes and is therefore
/// checked against the FIB's default rule, not by range semantics.
enum class ContractKind : std::uint8_t {
  kDefault,
  kSpecific,
};

/// How the actual next-hop set must relate to the expected one.
///
/// ToR/leaf/spine contracts demand the exact redundant set (Intent 3: all
/// redundant shortest paths available). Regional-spine contracts are
/// cardinality-style (§2.4.5): the actual set must be a non-empty subset of
/// the expected downlinks of at least `min_next_hops` elements — this is why
/// in Figure 3's failure scenario the R devices have *no* contract failure
/// for Prefix_B even though one of their candidate spines withdrew it.
enum class MatchMode : std::uint8_t {
  kExactSet,
  kSubsetAtLeast,
};

/// A local forwarding contract (§2.4): "a prefix and a set of next hops,
/// and states the expectation that all packets whose destination address
/// matches the given prefix must be forwarded to the specified next hops."
struct Contract {
  ContractKind kind = ContractKind::kSpecific;
  net::Prefix prefix;
  /// Expected next hops, sorted ascending by device id.
  std::vector<topo::DeviceId> expected_next_hops;
  MatchMode mode = MatchMode::kExactSet;
  /// Cardinality lower bound C(h, v) of §2.4.5; used by kSubsetAtLeast.
  std::size_t min_next_hops = 1;
  /// Whether a specific contract may be satisfied by the default route.
  /// Generated contracts set this to false: a destination served only by
  /// the default route is latent risk even when the ECMP sets coincide —
  /// the §2.6.2 "Migrations" case, where ToRs stopped seeing each other's
  /// specific announcements yet traffic still flowed via defaults, was
  /// reported as a violation of "all the specific contracts".
  bool allow_default_route = true;

  friend bool operator==(const Contract&, const Contract&) = default;
};

/// A device's check order (ContractPlan's): default contracts first, then
/// specific ones by ascending prefix.
[[nodiscard]] inline bool in_check_order(const Contract& a,
                                         const Contract& b) {
  const bool a_default = a.kind == ContractKind::kDefault;
  const bool b_default = b.kind == ContractKind::kDefault;
  if (a_default != b_default) return a_default;
  return a.prefix < b.prefix;
}

/// True iff an observed next-hop set satisfies the contract's matching mode.
/// Accepts any sorted next-hop view (Rule vectors, arena-backed Rib slices)
/// without materializing a copy.
[[nodiscard]] inline bool hops_satisfy(std::span<const topo::DeviceId> actual,
                                       const Contract& contract) {
  switch (contract.mode) {
    case MatchMode::kExactSet:
      return std::equal(actual.begin(), actual.end(),
                        contract.expected_next_hops.begin(),
                        contract.expected_next_hops.end());
    case MatchMode::kSubsetAtLeast:
      return actual.size() >= contract.min_next_hops &&
             std::includes(contract.expected_next_hops.begin(),
                           contract.expected_next_hops.end(), actual.begin(),
                           actual.end());
  }
  return false;
}

/// Why a contract failed.
enum class ViolationKind : std::uint8_t {
  /// The default route's next hops differ from the default contract.
  kDefaultRouteMismatch,
  /// The default route is absent entirely.
  kMissingDefaultRoute,
  /// A rule reachable within the contract range selects the wrong next
  /// hops (including the case where packets fall through to a default
  /// route with different hops).
  kWrongNextHops,
  /// Some addresses of the contract range match no rule at all: packets
  /// are dropped.
  kUnreachableRange,
  /// Part of the contract range is served only by the default route while
  /// the contract demands a specific route (latent-risk drift; §2.6.2
  /// "Migrations").
  kSpecificViaDefaultRoute,
};

[[nodiscard]] std::string_view to_string(ViolationKind kind);
std::ostream& operator<<(std::ostream& os, ViolationKind kind);

/// One contract violation, pointing at the specific rule that violates the
/// contract (as both engines of §2.5 report).
struct Violation {
  topo::DeviceId device = topo::kInvalidDevice;
  Contract contract;
  ViolationKind kind = ViolationKind::kWrongNextHops;
  /// The violating rule's prefix; meaningful for kWrongNextHops and
  /// kDefaultRouteMismatch.
  net::Prefix rule_prefix;
  /// The next hops the rule actually uses (empty for missing routes).
  std::vector<topo::DeviceId> actual_next_hops;

  friend bool operator==(const Violation&, const Violation&) = default;
};

/// All contracts of one device.
struct DeviceContracts {
  topo::DeviceId device = topo::kInvalidDevice;
  std::vector<Contract> contracts;
};

}  // namespace dcv::rcdc
