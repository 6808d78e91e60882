#pragma once

#include <vector>

#include "obs/metrics.hpp"
#include "rcdc/verifier.hpp"

namespace dcv::rcdc {

/// The specialized fast engine of §2.5.2. For each contract C it walks the
/// related rule set
///
///   { r | C.range ⊆ r.prefix ∨ r.prefix ⊆ C.range }
///
/// in descending prefix-length order, flags rules whose next hops do not
/// match the contract, accumulates covered address space, and stops as soon
/// as the union of walked prefixes covers C.range.
///
/// The paper keeps the policy in a hash-trie, where the related set is one
/// root-to-range path plus one subtree. The ForwardingTable's own order
/// (descending length, then network) already is that index: inside one
/// length bucket the rules C contains are one contiguous run, and the rule
/// that covers C at each shorter length is one exact match. So the walk is
/// at most 33 binary searches over fib.rules(), with nothing to build.
///
/// One refinement over the paper's listing: a rule is only flagged if it is
/// actually the longest-prefix match of some address in C.range (i.e. its
/// intersection with the range is not already covered by longer rules) —
/// this makes the engine agree exactly with the SMT engine's semantics,
/// which property tests assert.
class TrieVerifier final : public Verifier {
 public:
  /// `rules_walked`, when set, gets one sample per specific contract: the
  /// candidate rules walked before the §2.5.2 coverage stop fired.
  explicit TrieVerifier(obs::Histogram* rules_walked = nullptr)
      : rules_walked_(rules_walked) {}

  [[nodiscard]] std::vector<Violation> check(
      const routing::ForwardingTable& fib, std::span<const Contract> contracts,
      topo::DeviceId device) override;

 private:
  obs::Histogram* rules_walked_;
};

}  // namespace dcv::rcdc
