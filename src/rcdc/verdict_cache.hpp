#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "rcdc/contract.hpp"
#include "routing/fib.hpp"

namespace dcv::rcdc {

/// Semantic content fingerprint of a forwarding table: invariant under
/// permutation of rule storage order and of each rule's ECMP next-hop set
/// (equivalent tables fingerprint identically; never returns the 0
/// "never validated" sentinel).
[[nodiscard]] std::uint64_t fingerprint(const routing::ForwardingTable& fib);

/// The one memory of device verdicts. Locality (§2.4) makes it exact: a
/// device's verdict depends only on its own table and its contracts, so a
/// table equal to the one last verified has the same violations.
///
/// Per device the cache keeps the table handle last verified, its
/// fingerprint and the violations found, all keyed to one contract-plan
/// epoch. A lookup tries pointer identity with the stored handle first
/// (sources hand out the same object while a table is unchanged), then the
/// fingerprint, and only then misses. On a miss the pinned table and its
/// violations are what DeviceStep::verify() diffs the new table against
/// and rechecks from.
///
/// Each device's entry may be touched by one thread at a time; different
/// devices may be looked up and stored concurrently.
class VerdictCache {
 public:
  /// Adopts `epoch`. A different epoch than the one held (contracts may
  /// have changed for any device) drops every entry and resizes the cache
  /// to `devices`; the same epoch keeps everything.
  void set_epoch(std::uint64_t epoch, std::size_t devices);

  struct Lookup {
    /// The stored violations on a hit (a reference into the cache, never a
    /// copy); null on a miss.
    const std::vector<Violation>* violations = nullptr;
    /// The table's fingerprint, computed unless the handle itself matched
    /// (then 0).
    std::uint64_t fingerprint = 0;
  };

  /// Looks up `device`'s verdict for `table`. `fingerprint_ns`, when set,
  /// times the fingerprint (identity hits never take one).
  [[nodiscard]] Lookup lookup(topo::DeviceId device,
                              const routing::FibPtr& table,
                              obs::Histogram* fingerprint_ns = nullptr) const;

  /// Points a fingerprint-matched entry at `table`, an equal table in a new
  /// object, so that the next pull of that object hits by identity.
  void adopt(topo::DeviceId device, routing::FibPtr table);

  /// Records `device`'s verdict for a table with `fingerprint`. `table` may
  /// be null: the entry then matches by fingerprint only (and pins no
  /// table, so its next miss is checked in full). Returns the stored list.
  const std::vector<Violation>& store(topo::DeviceId device,
                                      routing::FibPtr table,
                                      std::uint64_t fingerprint,
                                      std::vector<Violation> violations);

  /// The table `device`'s stored verdict belongs to; null when none is
  /// stored or the entry was stored without one.
  [[nodiscard]] const routing::FibPtr& table(topo::DeviceId device) const {
    return entries_[device].table;
  }

  /// The stored violations of `device` (empty when none are stored).
  [[nodiscard]] const std::vector<Violation>& violations(
      topo::DeviceId device) const {
    return entries_[device].violations;
  }

 private:
  struct Entry {
    // Holding the handle keeps the object alive, so a later pull of the
    // same pointer means the same content.
    routing::FibPtr table;
    std::uint64_t fingerprint = 0;  // 0 = nothing stored
    std::vector<Violation> violations;
  };

  /// Starts at the all-ones sentinel so the first set_epoch() adopts.
  std::uint64_t epoch_ = ~std::uint64_t{0};
  std::vector<Entry> entries_;
};

}  // namespace dcv::rcdc
