#pragma once

#include "rcdc/verifier.hpp"

namespace dcv::rcdc {

/// The oracle and ablation baseline for the trie engine: identical
/// semantics, but the candidate set of §2.5.2,
///
///   { r | C.range ⊆ r.prefix ∨ r.prefix ⊆ C.range },
///
/// is collected by a linear scan over the whole policy instead of the trie
/// engine's binary searches into it. Per-contract cost is O(|policy|)
/// instead of O(33 log |policy| + |related|), so verifying all contracts of
/// a device is quadratic in its table size — this engine exists to check
/// the fast engine and to quantify what an index over the policy buys
/// (§2.5.2: "Collecting this set of rules is efficient ... because
/// traversal of the hash-trie can be limited to nodes that correspond to
/// rules that are returned").
class LinearVerifier final : public Verifier {
 public:
  [[nodiscard]] std::vector<Violation> check(
      const routing::ForwardingTable& fib, std::span<const Contract> contracts,
      topo::DeviceId device) override;
};

}  // namespace dcv::rcdc
