#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "routing/fib.hpp"
#include "routing/path_table.hpp"
#include "topology/faults.hpp"
#include "topology/topology.hpp"

namespace dcv::routing {

/// One RIB entry: the selected best routes for a prefix under EBGP
/// shortest-AS-path selection with ECMP across equally-good neighbors.
///
/// Memory-compact representation: the AS-path is a 32-bit PathId into the
/// process-wide hash-consed PathTable (paths are massively shared across
/// devices and prefixes), and the next-hop list is an (offset, count)
/// reference into the owning Rib's shared hop arena — lists of up to
/// kInlineHops device ids are stored directly in the entry. A 100k-device
/// fabric's route state is therefore one ~28-byte record per route plus
/// one contiguous arena per device, instead of two heap vectors per route.
struct RibEntry {
  /// Lists at most this long live inline in hop_words.
  static constexpr std::uint16_t kInlineHops = 2;

  net::Prefix prefix;
  /// AS-path of the selected route(s), own ASN first, interned in
  /// global_path_table(). kEmptyPathId for locally originated (connected)
  /// prefixes.
  PathId path = kEmptyPathId;
  /// Inline next hops (hop_count <= kInlineHops), or {arena offset, unused}
  /// for longer lists. Resolve through Rib::next_hops().
  std::array<topo::DeviceId, kInlineHops> hop_words{};
  std::uint16_t hop_count = 0;
  bool connected = false;
  /// Datacenter where the route originated; kNoDatacenter for the default
  /// route (originated by regional spines). Regional spines use this to
  /// avoid relaying a datacenter's own routes back into it. Part of entry
  /// equality: an origin flip must re-trigger propagation even when path
  /// and next hops are unchanged, or hairpin suppression acts on stale
  /// origins.
  topo::DatacenterId origin_datacenter = 0;

  /// The interned AS-path contents (own ASN first; empty for connected
  /// prefixes). One global table serves every Rib, so this needs no
  /// owning-Rib context.
  [[nodiscard]] std::span<const topo::Asn> as_path() const {
    return global_path_table().view(path);
  }

  /// True when the hop list is stored inline rather than in the arena.
  [[nodiscard]] bool hops_inline() const { return hop_count <= kInlineHops; }

  // Entries do not define operator==: next-hop references are only
  // meaningful relative to the owning Rib's arena. Compare through
  // Rib::entry_equal() (or Rib::operator== for whole tables).
  friend bool operator==(const RibEntry&, const RibEntry&) = delete;
};

/// The routing information base of one device: RibEntry records in a flat
/// vector sorted by prefix (binary-search lookups, cache-friendly scans),
/// with all out-of-line next-hop lists packed into one shared arena — a
/// Rib is at most two contiguous allocations regardless of route count.
class Rib {
 public:
  using const_iterator = std::vector<RibEntry>::const_iterator;

  Rib() = default;

  /// The entry for exactly this prefix, or nullptr.
  [[nodiscard]] const RibEntry* find(const net::Prefix& prefix) const;
  /// The entry for exactly this prefix; throws InvalidArgument if absent.
  [[nodiscard]] const RibEntry& at(const net::Prefix& prefix) const;
  [[nodiscard]] bool contains(const net::Prefix& prefix) const {
    return find(prefix) != nullptr;
  }

  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const std::vector<RibEntry>& entries() const {
    return entries_;
  }

  /// The next-hop list of an entry *of this Rib* (sorted, deduplicated;
  /// empty for connected prefixes). The span borrows entry or arena
  /// storage and is valid until the Rib is mutated.
  [[nodiscard]] std::span<const topo::DeviceId> next_hops(
      const RibEntry& entry) const {
    if (entry.hops_inline()) return {entry.hop_words.data(), entry.hop_count};
    return {arena_.data() + entry.hop_words[0], entry.hop_count};
  }

  // -- Building --------------------------------------------------------------

  /// Drops all entries and hop storage, retaining both capacities — a
  /// cleared Rib rebuilds without allocating (pinned by the arena-reuse
  /// property test).
  void clear() {
    entries_.clear();
    arena_.clear();
  }
  void reserve(std::size_t entries, std::size_t arena_hops) {
    entries_.reserve(entries);
    arena_.reserve(arena_hops);
  }
  /// Appends an entry, copying `hops` inline or into the arena. Entries may
  /// be appended in any order; call sort_by_prefix() before lookups if the
  /// append order was not already canonical.
  void append(const net::Prefix& prefix, PathId path,
              std::span<const topo::DeviceId> hops, bool connected,
              topo::DatacenterId origin_datacenter);
  /// Appends a copy of `entry` (owned by `source`), re-homing its hop list
  /// into this Rib's arena.
  void append_from(const Rib& source, const RibEntry& entry) {
    append(entry.prefix, entry.path, source.next_hops(entry), entry.connected,
           entry.origin_datacenter);
  }
  /// Sorts entries into canonical ascending-prefix order. Hop references
  /// travel with their entries; the arena is not reordered.
  void sort_by_prefix();

  /// Content equality of one entry across (possibly different) owning Ribs:
  /// prefix, AS-path (by PathId — the shared global table makes id equality
  /// content equality), connected flag, origin, and next-hop contents.
  [[nodiscard]] static bool entry_equal(const Rib& ra, const RibEntry& a,
                                        const Rib& rb, const RibEntry& b) {
    if (a.prefix != b.prefix || a.path != b.path ||
        a.connected != b.connected ||
        a.origin_datacenter != b.origin_datacenter ||
        a.hop_count != b.hop_count) {
      return false;
    }
    const std::span<const topo::DeviceId> ha = ra.next_hops(a);
    const std::span<const topo::DeviceId> hb = rb.next_hops(b);
    return std::equal(ha.begin(), ha.end(), hb.begin());
  }

  /// Whole-table content equality (same prefixes in order, equal entries).
  friend bool operator==(const Rib& a, const Rib& b) {
    if (a.entries_.size() != b.entries_.size()) return false;
    for (std::size_t i = 0; i < a.entries_.size(); ++i) {
      if (!entry_equal(a, a.entries_[i], b, b.entries_[i])) return false;
    }
    return true;
  }

  /// Raw storage of a Rib: the entry records plus the shared hop arena.
  /// release()/from_sorted() move it wholesale so the worklist commit can
  /// splice state between Ribs without reallocating either buffer.
  struct Storage {
    std::vector<RibEntry> entries;
    std::vector<topo::DeviceId> arena;
  };
  [[nodiscard]] Storage release() && {
    return Storage{std::move(entries_), std::move(arena_)};
  }
  /// Adopts storage whose entries are already in canonical prefix order
  /// with hop references valid against the accompanying arena.
  [[nodiscard]] static Rib from_sorted(Storage storage) {
    Rib rib;
    rib.entries_ = std::move(storage.entries);
    rib.arena_ = std::move(storage.arena);
    return rib;
  }

  /// Resident bytes of this Rib's own storage (capacities, not sizes —
  /// what the allocator is actually holding).
  [[nodiscard]] std::size_t memory_bytes() const {
    return entries_.capacity() * sizeof(RibEntry) +
           arena_.capacity() * sizeof(topo::DeviceId);
  }

 private:
  std::vector<RibEntry> entries_;
  std::vector<topo::DeviceId> arena_;
};

/// Programs a FIB from converged RIB entries, applying the device-level
/// FIB-programming faults of §2.6.2 (kRibFibInconsistency,
/// kEcmpSingleNextHop). Shared by the worklist engine and the retained
/// reference implementation. The rules are built in `scratch`, reusing the
/// next-hop storage of the rules it holds (say, an earlier table's
/// release()), so programming many tables in turn stops allocating per rule.
[[nodiscard]] ForwardingTable program_fib(const Rib& rib,
                                          const topo::FaultInjector* faults,
                                          topo::DeviceId device,
                                          std::vector<Rule> scratch = {});

/// Tuning knobs of the worklist engine. The converged result is identical
/// at every thread count: workers read the previous round's state and write
/// per-device results, and best-path selection is order-independent.
struct BgpSimOptions {
  /// Worker threads for frontier processing; 0 picks a hardware default.
  unsigned threads = 0;
  /// Frontiers smaller than this are processed inline on the calling
  /// thread — warm reconvergence frontiers are usually a handful of
  /// devices, where handing work to the pool costs more than the work.
  std::size_t parallel_threshold = 32;
};

/// A synchronous-round EBGP route-propagation simulator implementing the
/// routing design of §2.1:
///
///  * every link carries one EBGP session; routes flow only over usable
///    sessions;
///  * ToRs originate their hosted VLAN prefixes; regional spines originate
///    the default route 0.0.0.0/0;
///  * best-path selection is shortest AS-path with ECMP across all
///    neighbors advertising an equally short path;
///  * loop prevention rejects announcements carrying the receiver's own
///    ASN — except on ToR upstream sessions, which are configured to accept
///    paths containing the (reused) ToR ASN of a sibling rack (§2.1);
///  * regional spines strip private ASNs from relayed paths;
///  * no route aggregation anywhere (§2.1).
///
/// Device-level faults from a FaultInjector are honored: a device with
/// kRejectDefaultRoute drops default announcements at import; FIB-programming
/// faults (kRibFibInconsistency, kEcmpSingleNextHop) distort fib() output
/// while leaving the RIB intact, reproducing §2.6.2's software bugs.
///
/// Unlike the retained ReferenceBgpSimulator (Jacobi full recompute with a
/// whole-network copy per round), this engine is worklist-driven: a round
/// reprocesses only the dirty frontier — devices with at least one neighbor
/// whose *exported* routes changed in the previous round — and only the
/// prefixes whose export changed somewhere. A neighbor's selection reads
/// the presence, AS-path, connected flag and origin of an entry, never its
/// next hops, so a device whose next hops alone changed rebuilds its FIB
/// but wakes no neighbor. rounds() still counts as the reference does: a
/// round that changed RIBs but no export is followed by one settle round,
/// which the engine counts without running. Only the frontier's results are
/// double-buffered. Frontiers are processed in parallel; candidate
/// collection borrows AS-path storage from the global PathTable (immutable,
/// append-only) and per-worker memo tables turn repeat rewrites
/// (private-ASN stripping, own-ASN prepends, connected originations) into
/// one hash probe with no lock traffic, so the steady loop allocates
/// nothing per announcement. ReferenceBgpSimulator equivalence is pinned by
/// the differential test suite.
class BgpSimulator {
 public:
  /// Runs propagation to a fixpoint over the topology's *current* link and
  /// session state. `faults` may be null (no device-level faults).
  /// `metrics`, when non-null, receives dcv_bgp_* series for this run and
  /// every later reconverge() (dcv_bgp_converge_ns{mode="cold"|"warm"} times
  /// each convergence) and dcv_fib_materialize_ns per table built.
  explicit BgpSimulator(const topo::Topology& topology,
                        const topo::FaultInjector* faults = nullptr,
                        obs::MetricsRegistry* metrics = nullptr,
                        BgpSimOptions options = {});
  ~BgpSimulator();

  BgpSimulator(const BgpSimulator&) = delete;
  BgpSimulator& operator=(const BgpSimulator&) = delete;

  /// Warm-start reconvergence: diffs the topology's current link/session
  /// usability, ASN assignments, hosted prefixes and device-fault state
  /// against a snapshot taken at the last convergence, seeds the worklist
  /// from exactly the changed devices, and propagates deltas to a new
  /// fixpoint. Equivalent to (but much cheaper than) a cold rerun on the
  /// mutated topology; if the device/link sets themselves changed, it
  /// falls back to a cold full run. Returns the rounds taken (0 when
  /// nothing changed). Not thread-safe against concurrent rib()/fib().
  int reconverge();

  /// Opens a trial at the converged state: until rollback(), each device's
  /// first displaced Rib and its FIB handle as of now are moved into an undo
  /// log instead of being recycled, so the trial's changes can be undone at
  /// O(changed devices) cost. The state captured is the last convergence;
  /// a topology mutated since then is part of the trial. Opening a new
  /// trial drops the log of an open one, keeping its changes.
  void checkpoint();

  /// Undoes every reconverge() since checkpoint(): swaps the logged Ribs
  /// and FIB handles back, so every rib(d) equals its checkpoint content
  /// and every fib_handle(d) that was materialized then is the same
  /// object again, and restores the changed-device set to what it was at
  /// checkpoint(). The caller must first restore the topology (and fault
  /// state) to the checkpoint; otherwise — or without an open trial —
  /// throws std::logic_error and changes nothing. A trial that fell back
  /// to a cold run is undone by another cold run, which marks every device
  /// changed.
  void rollback();

  /// The converged RIB of a device.
  [[nodiscard]] const Rib& rib(topo::DeviceId device) const;

  /// The FIB programmed from the RIB, with any device-level FIB faults
  /// applied. Connected (locally hosted) prefixes are included as connected
  /// rules. Materialized once and cached; reconverge() invalidates only the
  /// devices whose RIB (or FIB-fault state) actually changed, so steady
  /// monitoring cycles stop rebuilding ForwardingTables. Safe to call
  /// concurrently.
  /// fib_handle() shares the cached object (the same one until the device
  /// changes; an older handle keeps its content); fib() is a view valid
  /// until the next reconverge().
  [[nodiscard]] FibPtr fib_handle(topo::DeviceId device) const;
  [[nodiscard]] const ForwardingTable& fib(topo::DeviceId device) const {
    return *fib_handle(device);
  }

  /// Number of synchronous rounds of the most recent convergence (the
  /// initial cold run, or the latest reconverge()).
  [[nodiscard]] int rounds() const { return rounds_; }

  /// Drains the set of devices whose RIB or FIB-programming state changed
  /// since the previous take_changed_devices() call (construction counts
  /// every device). The warm-precheck session uses this to bound
  /// revalidation to the devices a change could have touched. Sorted,
  /// deduplicated. Call only from the mutating thread (same contract as
  /// reconverge()).
  [[nodiscard]] std::vector<topo::DeviceId> take_changed_devices();

  /// Resident bytes of the converged route state: every device's Rib
  /// storage plus this simulator's bookkeeping vectors (FIB caches and
  /// interned paths are accounted separately). Basis of bench_scale's
  /// bytes-per-device metric.
  [[nodiscard]] std::size_t route_state_bytes() const;

  /// True if `asn` falls in the private-use range stripped by regional
  /// spines (we treat 64500..65535 as the datacenter-private range; the
  /// regional tier itself uses ASNs below that range).
  static bool is_private_asn(topo::Asn asn) {
    return asn >= 64500 && asn <= 65535;
  }

 private:
  struct WorkerState;

  void cold_run();
  /// Runs the worklist to a fixpoint from the given seed frontier;
  /// returns rounds taken and marks changed devices' FIB caches dirty.
  int run_worklist(std::vector<topo::DeviceId> frontier);
  /// Recomputes a device's routes. In the seed round (`dirty == nullptr`)
  /// the whole RIB is recomputed and `out` receives it in full; in later
  /// rounds only the globally dirty prefixes (sorted) are recomputed —
  /// selection is per-prefix independent, so entries for clean prefixes
  /// cannot have changed — and `out` receives just those entries, which
  /// the commit splices over the previous state. Returns true iff the
  /// device's RIB changed (false leaves `out` untouched).
  bool process_device(const topo::Device& device, WorkerState& state,
                      Rib& out,
                      const std::vector<net::Prefix>* dirty) const;
  /// Everything route-affecting, as of a convergence.
  struct Snapshot {
    std::vector<std::uint8_t> link_usable;
    std::vector<std::uint8_t> reject_default;
    std::vector<std::uint8_t> fib_fault;
    std::vector<topo::Asn> asn;
    std::vector<std::vector<net::Prefix>> hosted;
  };

  /// One device's checkpoint state, logged on its first change in a trial.
  struct UndoEntry {
    topo::DeviceId device = topo::kInvalidDevice;
    FibPtr fib;  // null when the table was not materialized
    Rib rib;
    bool has_rib = false;  // false while only the FIB was invalidated
  };

  void snapshot_state();
  /// Diffs current topology/fault state against `snapshot`: devices whose
  /// routes may change go to `seeds`, devices whose FIB-only fault state
  /// flipped to `fib_only`. Returns false if the expected shape changed
  /// (cold rerun needed).
  bool diff_state(const Snapshot& snapshot, std::vector<topo::DeviceId>& seeds,
                  std::vector<topo::DeviceId>& fib_only) const;
  void invalidate_fib(topo::DeviceId device);
  /// The open trial's log entry of `device`, created (holding the current
  /// FIB handle) on first use; null outside a trial or after it went cold.
  UndoEntry* undo_entry(topo::DeviceId device);
  void clear_undo_log();
  void publish_metrics(int rounds, bool warm);

  const topo::Topology* topology_;
  const topo::FaultInjector* faults_;
  obs::MetricsRegistry* metrics_;
  BgpSimOptions options_;
  std::vector<Rib> ribs_;  // indexed by device id
  int rounds_ = 0;

  // Instruments resolved once from metrics_ (null when metrics_ is null).
  obs::Histogram* rounds_hist_ = nullptr;
  obs::Histogram* reconverge_hist_ = nullptr;
  obs::Histogram* frontier_hist_ = nullptr;
  obs::Counter* routes_counter_ = nullptr;
  obs::Gauge* paths_gauge_ = nullptr;
  obs::Counter* fib_rebuilds_ = nullptr;
  obs::Counter* fib_hits_ = nullptr;
  obs::Histogram* fib_materialize_ns_ = nullptr;
  obs::Histogram* cold_ns_ = nullptr;  // dcv_bgp_converge_ns{mode="cold"}
  obs::Histogram* warm_ns_ = nullptr;  // dcv_bgp_converge_ns{mode="warm"}

  // Per-worker scratch (candidate buffers, rewrite memos), indexed by the
  // executor's worker index; index 0 doubles as the inline state.
  std::vector<std::unique_ptr<WorkerState>> workers_;

  // Commit-side scratch Rib recycled across partial merges so steady-state
  // commits stop allocating (single-threaded use only).
  Rib merge_scratch_;

  // State of the last convergence, diffed by reconverge().
  Snapshot snap_;

  // The open trial (checkpoint() .. rollback()): the undo log with each
  // logged device's index in it (kNotLogged otherwise), and the state
  // rollback() restores besides the logged devices.
  static constexpr std::uint32_t kNotLogged = ~std::uint32_t{0};
  bool trial_open_ = false;
  bool trial_cold_ = false;  // the trial fell back to a cold run: no log
  std::vector<UndoEntry> undo_;
  std::vector<std::uint32_t> undo_index_;
  Snapshot checkpoint_snap_;
  std::vector<topo::DeviceId> checkpoint_changed_;
  int checkpoint_rounds_ = 0;

  // Lazily materialized per-device FIBs, striped locks for concurrent
  // fetches.
  mutable std::vector<FibPtr> fib_cache_;
  mutable std::array<std::mutex, 64> fib_locks_;

  // Devices invalidated since the last take_changed_devices() drain
  // (mark vector dedups; touched only on the mutating thread).
  std::vector<std::uint8_t> changed_mark_;
  std::vector<topo::DeviceId> changed_list_;
};

}  // namespace dcv::routing
