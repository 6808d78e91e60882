#include "routing/bgp_sim.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "exec/executor.hpp"
#include "net/error.hpp"
#include "obs/span.hpp"

namespace dcv::routing {

namespace {

using topo::Asn;
using topo::DeviceId;

/// A route as received from one neighbor during one device step. The path
/// view borrows the global PathTable's storage (append-only, immutable), so
/// it is valid for the whole run; path_id is the same path's interned
/// identity, carried so selection results can reference it without
/// re-interning.
struct Candidate {
  net::Prefix prefix;
  DeviceId neighbor = topo::kInvalidDevice;
  PathId path_id = kEmptyPathId;
  std::span<const Asn> path;
  topo::DatacenterId origin_datacenter = 0;
};

/// Whether two entries for one prefix export the same announcement: the
/// fields a neighbor's selection reads (path, connected, origin). Next hops
/// never leave the device.
bool exports_equal(const RibEntry& a, const RibEntry& b) {
  return a.path == b.path && a.connected == b.connected &&
         a.origin_datacenter == b.origin_datacenter;
}

void sort_unique(std::vector<net::Prefix>& prefixes) {
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                 prefixes.end());
}

}  // namespace

// ---------------------------------------------------------------------------
// Rib

const RibEntry* Rib::find(const net::Prefix& prefix) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), prefix,
      [](const RibEntry& e, const net::Prefix& p) { return e.prefix < p; });
  if (it == entries_.end() || it->prefix != prefix) return nullptr;
  return &*it;
}

const RibEntry& Rib::at(const net::Prefix& prefix) const {
  const RibEntry* entry = find(prefix);
  if (entry == nullptr) throw InvalidArgument("no RIB entry for prefix");
  return *entry;
}

void Rib::append(const net::Prefix& prefix, PathId path,
                 std::span<const topo::DeviceId> hops, bool connected,
                 topo::DatacenterId origin_datacenter) {
  RibEntry entry;
  entry.prefix = prefix;
  entry.path = path;
  entry.connected = connected;
  entry.origin_datacenter = origin_datacenter;
  entry.hop_count = static_cast<std::uint16_t>(hops.size());
  if (hops.size() <= RibEntry::kInlineHops) {
    std::copy(hops.begin(), hops.end(), entry.hop_words.begin());
  } else {
    entry.hop_words[0] = static_cast<std::uint32_t>(arena_.size());
    arena_.insert(arena_.end(), hops.begin(), hops.end());
    live_hops_ += hops.size();
  }
  entries_.push_back(entry);
}

void Rib::sort_by_prefix() {
  std::sort(entries_.begin(), entries_.end(),
            [](const RibEntry& a, const RibEntry& b) {
              return a.prefix < b.prefix;
            });
}

RibEntry Rib::adopt(const Rib& source, const RibEntry& entry) {
  RibEntry record = entry;
  if (!entry.hops_inline()) {
    const std::span<const DeviceId> hops = source.next_hops(entry);
    record.hop_words[0] = static_cast<std::uint32_t>(arena_.size());
    arena_.insert(arena_.end(), hops.begin(), hops.end());
  }
  return record;
}

void Rib::splice(std::span<const RibEntry> records,
                 std::span<const net::Prefix> removed,
                 std::vector<Displaced>* displaced) {
  // Replacements land in place; inserts go after the old entries, for one
  // merge at the end. Both walks search the old entries forward only.
  const std::size_t old_size = entries_.size();
  const auto position = [this](std::size_t index) {
    return entries_.begin() + static_cast<std::ptrdiff_t>(index);
  };
  const auto seek = [&](std::size_t from, const net::Prefix& prefix) {
    return static_cast<std::size_t>(
        std::lower_bound(position(from), position(old_size), prefix,
                         [](const RibEntry& e, const net::Prefix& p) {
                           return e.prefix < p;
                         }) -
        entries_.begin());
  };
  const auto absent = [displaced](const net::Prefix& prefix) {
    if (displaced != nullptr) {
      displaced->push_back({RibEntry{.prefix = prefix}, false});
    }
  };
  std::size_t at = 0;
  for (auto it = records.begin(); it != records.end(); ++it) {
    const RibEntry& record = *it;
    at = seek(at, record.prefix);
    live_hops_ += arena_hops(record);
    if (at < old_size && entries_[at].prefix == record.prefix) {
      if (displaced != nullptr) displaced->push_back({entries_[at], true});
      live_hops_ -= arena_hops(entries_[at]);
      entries_[at] = record;
    } else {
      absent(record.prefix);
      if (entries_.size() == old_size) {
        // Room for every record left, rather than doubling the entries.
        entries_.reserve(old_size +
                         static_cast<std::size_t>(records.end() - it));
      }
      entries_.push_back(record);
    }
  }
  std::size_t removals = 0;
  at = 0;
  for (const net::Prefix& prefix : removed) {
    at = seek(at, prefix);
    if (at == old_size || entries_[at].prefix != prefix) {
      absent(prefix);
      continue;
    }
    if (displaced != nullptr) displaced->push_back({entries_[at], true});
    live_hops_ -= arena_hops(entries_[at]);
    ++removals;
  }
  auto middle = position(old_size);
  if (removals > 0) {
    auto next = removed.begin();
    const auto kept = std::remove_if(
        entries_.begin(), middle, [&](const RibEntry& entry) {
          while (next != removed.end() && *next < entry.prefix) ++next;
          return next != removed.end() && *next == entry.prefix;
        });
    const auto end = std::move(middle, entries_.end(), kept);
    entries_.erase(end, entries_.end());
    middle = kept;
  }
  if (middle != entries_.end()) {
    std::inplace_merge(entries_.begin(), middle, entries_.end(),
                       [](const RibEntry& a, const RibEntry& b) {
                         return a.prefix < b.prefix;
                       });
  }
}

void Rib::compact_arena() {
  std::vector<DeviceId> packed;
  packed.reserve(live_hops_ + live_hops_ / 4);
  for (RibEntry& entry : entries_) {
    if (entry.hops_inline()) continue;
    const std::span<const DeviceId> hops = next_hops(entry);
    entry.hop_words[0] = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), hops.begin(), hops.end());
  }
  arena_ = std::move(packed);
}

// ---------------------------------------------------------------------------
// FIB programming (shared with ReferenceBgpSimulator)

void assign_rule(const Rib& rib, const RibEntry& entry, Rule& rule) {
  const std::span<const DeviceId> hops = rib.next_hops(entry);
  rule.prefix = entry.prefix;
  rule.next_hops.assign(hops.begin(), hops.end());
  rule.connected = entry.connected;
}

ForwardingTable program_fib(const Rib& rib, const topo::FaultInjector* faults,
                            topo::DeviceId device) {
  const bool rib_fib_bug =
      faults != nullptr &&
      faults->device_has_fault(device,
                               topo::DeviceFaultKind::kRibFibInconsistency);
  const bool ecmp_bug =
      faults != nullptr &&
      faults->device_has_fault(device,
                               topo::DeviceFaultKind::kEcmpSingleNextHop);

  std::vector<Rule> rules(rib.size());
  auto rule = rules.begin();
  for (const RibEntry& entry : rib) {
    assign_rule(rib, entry, *rule);
    // "Software Bug 1": the FIB retains far fewer next hops for the default
    // route than the RIB computed (§2.6.2).
    // ECMP misconfiguration: a single next hop is programmed everywhere
    // instead of the full available set (§2.6.2 "Policy Errors").
    if ((rib_fib_bug && entry.prefix.is_default()) || ecmp_bug) {
      rule->next_hops.resize(std::min<std::size_t>(rule->next_hops.size(), 1));
    }
    ++rule;
  }
  // The RIB is in prefix order, so the bulk build is one bucket pass.
  return ForwardingTable(std::move(rules));
}

// ---------------------------------------------------------------------------
// Worker state

struct BgpSimulator::WorkerState {
  std::vector<Candidate> candidates;
  std::vector<DeviceId> hops_scratch;
  std::vector<Asn> path_scratch;
  /// Recomputed entries, compared in place with the device's RIB; the
  /// storage is reused across devices.
  Rib fresh;
  /// Rewrite memos: intern() results are pure functions of their inputs, so
  /// one hash probe replaces the stripe lock + payload copy on repeats.
  std::unordered_map<Asn, PathId> origin_memo;          // [asn] origination
  std::unordered_map<PathId, PathId> strip_memo;        // private-ASN strip
  std::unordered_map<std::uint64_t, PathId> prepend_memo;  // (asn, path)
  std::uint64_t routes_propagated = 0;
};

// ---------------------------------------------------------------------------
// BgpSimulator

BgpSimulator::BgpSimulator(const topo::Topology& topology,
                           const topo::FaultInjector* faults,
                           obs::MetricsRegistry* metrics,
                           BgpSimOptions options)
    : topology_(&topology),
      faults_(faults),
      metrics_(metrics),
      options_(options) {
  options_.threads = exec::default_threads(options_.threads);
  workers_.reserve(options_.threads);
  for (unsigned t = 0; t < options_.threads; ++t) {
    workers_.push_back(std::make_unique<WorkerState>());
  }
  if (metrics_ != nullptr) {
    rounds_hist_ = &metrics_->histogram(
        "dcv_bgp_convergence_rounds",
        "Synchronous rounds until EBGP convergence");
    reconverge_hist_ = &metrics_->histogram(
        "dcv_bgp_reconverge_rounds",
        "Rounds a warm-start reconverge() took to reach the new fixpoint");
    frontier_hist_ = &metrics_->histogram(
        "dcv_bgp_frontier_devices",
        "Devices reprocessed per worklist round");
    routes_counter_ = &metrics_->counter(
        "dcv_bgp_routes_propagated_total",
        "Accepted candidate announcements across all rounds");
    paths_gauge_ = &metrics_->gauge(
        "dcv_bgp_paths_interned",
        "Distinct AS-paths hash-consed in the global PathTable");
    fib_rebuilds_ = &metrics_->counter(
        "dcv_bgp_fib_rebuilds_total",
        "ForwardingTable materializations from a converged RIB");
    fib_hits_ = &metrics_->counter(
        "dcv_bgp_fib_cache_hits_total",
        "fib() fetches served from the materialized-table cache");
    fib_materialize_ns_ = &metrics_->histogram(
        "dcv_fib_materialize_ns",
        "Time to program one ForwardingTable from a converged RIB");
    const auto converge = [this](const char* mode) {
      return &metrics_->histogram(
          "dcv_bgp_converge_ns",
          "Time to reach an EBGP fixpoint: a cold run from origination, or a "
          "warm reconverge() from the changed devices",
          {{"mode", mode}});
    };
    cold_ns_ = converge("cold");
    warm_ns_ = converge("warm");
  }
  ribs_.resize(topology.device_count());
  fib_cache_.resize(topology.device_count());
  cold_run();
}

BgpSimulator::~BgpSimulator() = default;

const Rib& BgpSimulator::rib(topo::DeviceId device) const {
  if (device >= ribs_.size()) throw InvalidArgument("bad device id");
  return ribs_[device];
}

FibPtr BgpSimulator::fib_handle(topo::DeviceId device) const {
  if (device >= ribs_.size()) throw InvalidArgument("bad device id");
  const std::lock_guard lock(fib_locks_[device % fib_locks_.size()]);
  FibPtr& slot = fib_cache_[device];
  if (slot == nullptr) {
    obs::ScopedTimer timer(fib_materialize_ns_);
    slot = share_fib(program_fib(ribs_[device], faults_, device));
    if (fib_rebuilds_ != nullptr) fib_rebuilds_->inc();
  } else if (fib_hits_ != nullptr) {
    fib_hits_->inc();
  }
  return slot;
}

std::size_t BgpSimulator::route_state_bytes() const {
  std::size_t total = ribs_.capacity() * sizeof(Rib);
  for (const Rib& rib : ribs_) total += rib.memory_bytes();
  return total;
}

BgpSimulator::Change& BgpSimulator::invalidate_fib(topo::DeviceId device) {
  (void)undo_entry(device);  // logs the handle before it is dropped
  {
    const std::lock_guard lock(fib_locks_[device % fib_locks_.size()]);
    fib_cache_[device].reset();
  }
  if (changes_.size() < topology_->device_count()) {
    changes_.resize(topology_->device_count());
  }
  Change& change = changes_[device];
  if (!change.marked) {
    // A drained record's prefixes stay readable until the device changes
    // again.
    change.marked = true;
    change.whole = false;
    change.prefixes.clear();
    changed_list_.push_back(device);
  }
  return change;
}

std::vector<topo::DeviceId> BgpSimulator::take_changed_devices() {
  std::vector<topo::DeviceId> drained = std::move(changed_list_);
  changed_list_.clear();
  for (const topo::DeviceId device : drained) {
    Change& change = changes_[device];
    change.marked = false;
    sort_unique(change.prefixes);
  }
  std::sort(drained.begin(), drained.end());
  return drained;
}

const std::vector<net::Prefix>* BgpSimulator::changed_prefixes(
    topo::DeviceId device) const {
  if (device >= changes_.size()) throw InvalidArgument("bad device id");
  const Change& change = changes_[device];
  return change.whole ? nullptr : &change.prefixes;
}

void BgpSimulator::snapshot_state() {
  const auto& devices = topology_->devices();
  const auto& links = topology_->links();
  snap_.link_usable.resize(links.size());
  for (std::size_t l = 0; l < links.size(); ++l) {
    snap_.link_usable[l] = links[l].usable() ? 1 : 0;
  }
  snap_.reject_default.assign(devices.size(), 0);
  snap_.fib_fault.assign(devices.size(), 0);
  snap_.asn.resize(devices.size());
  snap_.hosted.resize(devices.size());
  for (const topo::Device& d : devices) {
    if (faults_ != nullptr) {
      if (faults_->device_has_fault(
              d.id, topo::DeviceFaultKind::kRejectDefaultRoute)) {
        snap_.reject_default[d.id] = 1;
      }
      std::uint8_t sig = 0;
      if (faults_->device_has_fault(
              d.id, topo::DeviceFaultKind::kRibFibInconsistency)) {
        sig |= 1;
      }
      if (faults_->device_has_fault(
              d.id, topo::DeviceFaultKind::kEcmpSingleNextHop)) {
        sig |= 2;
      }
      snap_.fib_fault[d.id] = sig;
    }
    snap_.asn[d.id] = d.asn;
    snap_.hosted[d.id] = d.hosted_prefixes;
  }
}

bool BgpSimulator::diff_state(const Snapshot& snapshot,
                              std::vector<topo::DeviceId>& seeds,
                              std::vector<topo::DeviceId>& fib_only) const {
  const auto& devices = topology_->devices();
  const auto& links = topology_->links();
  if (devices.size() != snapshot.asn.size() ||
      links.size() != snapshot.link_usable.size()) {
    return false;  // expected shape changed: warm state is unusable
  }

  std::vector<std::uint8_t> marked(devices.size(), 0);
  const auto seed = [&](DeviceId d) {
    if (!marked[d]) {
      marked[d] = 1;
      seeds.push_back(d);
    }
  };

  for (std::size_t l = 0; l < links.size(); ++l) {
    const std::uint8_t usable = links[l].usable() ? 1 : 0;
    if (usable != snapshot.link_usable[l]) {
      seed(links[l].a);
      seed(links[l].b);
    }
  }
  for (const topo::Device& d : devices) {
    std::uint8_t reject = 0;
    std::uint8_t sig = 0;
    if (faults_ != nullptr) {
      if (faults_->device_has_fault(
              d.id, topo::DeviceFaultKind::kRejectDefaultRoute)) {
        reject = 1;
      }
      if (faults_->device_has_fault(
              d.id, topo::DeviceFaultKind::kRibFibInconsistency)) {
        sig |= 1;
      }
      if (faults_->device_has_fault(
              d.id, topo::DeviceFaultKind::kEcmpSingleNextHop)) {
        sig |= 2;
      }
    }
    if (reject != snapshot.reject_default[d.id]) seed(d.id);
    // FIB-programming faults never touch the RIB; flipping one only stales
    // the materialized table.
    if (sig != snapshot.fib_fault[d.id]) fib_only.push_back(d.id);
    if (d.asn != snapshot.asn[d.id]) {
      // The device's own paths and its neighbors' loop checks both involve
      // this ASN.
      seed(d.id);
      for (const topo::LinkId lid : topology_->links_of(d.id)) {
        seed(topology_->link(lid).other(d.id));
      }
    }
    if (d.hosted_prefixes != snapshot.hosted[d.id]) seed(d.id);
  }
  return true;
}

BgpSimulator::UndoEntry* BgpSimulator::undo_entry(topo::DeviceId device) {
  if (!trial_open_ || trial_cold_) return nullptr;
  std::uint32_t& index = undo_index_[device];
  if (index == kNotLogged) {
    index = static_cast<std::uint32_t>(undo_.size());
    UndoEntry& entry = undo_.emplace_back();
    entry.device = device;
    entry.arena_size = ribs_[device].arena_size();
    const std::lock_guard lock(fib_locks_[device % fib_locks_.size()]);
    entry.fib = fib_cache_[device];
  }
  return &undo_[index];
}

void BgpSimulator::clear_undo_log() {
  for (const UndoEntry& entry : undo_) undo_index_[entry.device] = kNotLogged;
  undo_.clear();
  undo_routes_.clear();
}

void BgpSimulator::checkpoint() {
  clear_undo_log();
  undo_index_.resize(ribs_.size(), kNotLogged);
  trial_open_ = true;
  trial_cold_ = false;
  checkpoint_snap_ = snap_;
  checkpoint_changed_ = changed_list_;
  checkpoint_changes_.clear();
  for (const DeviceId d : changed_list_) {
    checkpoint_changes_.push_back(changes_[d]);
  }
  checkpoint_rounds_ = rounds_;
}

void BgpSimulator::rollback() {
  if (!trial_open_) throw std::logic_error("rollback() without checkpoint()");
  std::vector<DeviceId> seeds;
  std::vector<DeviceId> fib_only;
  if (!diff_state(checkpoint_snap_, seeds, fib_only) || !seeds.empty() ||
      !fib_only.empty()) {
    throw std::logic_error(
        "rollback() before the topology was restored to the checkpoint");
  }
  trial_open_ = false;
  if (trial_cold_) {
    ribs_.assign(topology_->device_count(), Rib{});
    fib_cache_.clear();
    fib_cache_.resize(topology_->device_count());
    cold_run();
    return;
  }
  // Each logged entry undoes one commit step, so walking the log backwards
  // puts every prefix's checkpoint entry back last; those reference only
  // arena words below the logged lengths.
  for (auto it = undo_routes_.rbegin(); it != undo_routes_.rend(); ++it) {
    const Rib::Displaced& displaced = it->displaced;
    if (displaced.present) {
      ribs_[it->device].splice({&displaced.record, 1}, {}, nullptr);
    } else {
      ribs_[it->device].splice({}, {&displaced.record.prefix, 1}, nullptr);
    }
  }
  for (UndoEntry& entry : undo_) {
    const DeviceId d = entry.device;
    ribs_[d].truncate_arena(entry.arena_size);
    const std::lock_guard lock(fib_locks_[d % fib_locks_.size()]);
    fib_cache_[d] = std::move(entry.fib);
  }
  clear_undo_log();
  // The trial's marks go; the ones pending at checkpoint() come back.
  for (const DeviceId d : changed_list_) changes_[d].marked = false;
  changed_list_ = checkpoint_changed_;
  for (std::size_t k = 0; k < changed_list_.size(); ++k) {
    changes_[changed_list_[k]] = std::move(checkpoint_changes_[k]);
  }
  std::swap(snap_, checkpoint_snap_);  // equal to the restored topology
  rounds_ = checkpoint_rounds_;
}

void BgpSimulator::cold_run() {
  obs::ScopedTimer timer(cold_ns_);
  const auto& devices = topology_->devices();
  // Seed locally originated routes so the first round already propagates
  // them: ToRs originate their hosted VLAN prefixes, regional spines the
  // default route (§2.1).
  for (const topo::Device& d : devices) {
    Rib rib;
    if (d.role == topo::DeviceRole::kTor) {
      rib.reserve(d.hosted_prefixes.size(), 0);
      for (const net::Prefix& p : d.hosted_prefixes) {
        rib.append(p, kEmptyPathId, {}, /*connected=*/true, d.datacenter);
      }
      rib.sort_by_prefix();
    } else if (d.role == topo::DeviceRole::kRegionalSpine) {
      rib.append(net::Prefix::default_route(), kEmptyPathId, {},
                 /*connected=*/true, topo::kNoDatacenter);
    }
    ribs_[d.id] = std::move(rib);
    invalidate_fib(d.id).whole = true;
  }
  snapshot_state();
  std::vector<DeviceId> frontier(devices.size());
  for (std::size_t d = 0; d < devices.size(); ++d) {
    frontier[d] = static_cast<DeviceId>(d);
  }
  rounds_ = run_worklist(std::move(frontier), /*cold=*/true);
  // Commits grew every RIB from its originations; leave none of that slack.
  for (Rib& rib : ribs_) rib.shrink_to_fit();
  publish_metrics(rounds_, /*warm=*/false);
}

int BgpSimulator::reconverge() {
  obs::ScopedTimer timer(warm_ns_);
  std::vector<DeviceId> seeds;
  std::vector<DeviceId> fib_only;
  if (!diff_state(snap_, seeds, fib_only)) {
    if (trial_open_ && !trial_cold_) {
      trial_cold_ = true;  // the log cannot describe a reshaped fabric
      clear_undo_log();
    }
    timer.cancel();  // timed as the cold run it is
    ribs_.assign(topology_->device_count(), Rib{});
    fib_cache_.clear();
    fib_cache_.resize(topology_->device_count());
    cold_run();
    return rounds_;
  }
  for (const DeviceId d : fib_only) invalidate_fib(d).whole = true;
  snapshot_state();  // import_ok reads the refreshed fault flags
  rounds_ =
      seeds.empty() ? 0 : run_worklist(std::move(seeds), /*cold=*/false);
  publish_metrics(rounds_, /*warm=*/true);
  return rounds_;
}

int BgpSimulator::run_worklist(std::vector<topo::DeviceId> frontier,
                               bool cold) {
  const auto& devices = topology_->devices();
  for (const auto& worker : workers_) worker->routes_propagated = 0;

  int rounds = 0;
  // Convergence is bounded by the network diameter; the cap is a safety net.
  constexpr int kMaxRounds = 64;
  std::vector<std::uint8_t> changed;
  std::vector<std::uint8_t> queued(devices.size(), 0);
  std::vector<DeviceId> next;
  // Prefixes whose entries changed anywhere in the previous round, sorted.
  // The seed round recomputes its devices in full (external state changed
  // under them); every later round only reselects dirty prefixes.
  std::vector<net::Prefix> dirty;
  std::vector<net::Prefix> next_dirty;
  bool seed_round = true;

  while (!frontier.empty() && rounds < kMaxRounds) {
    ++rounds;
    if (frontier_hist_ != nullptr) frontier_hist_->observe(frontier.size());
    if (deltas_.size() < frontier.size()) deltas_.resize(frontier.size());
    changed.assign(frontier.size(), 0);
    const std::vector<net::Prefix>* round_dirty = seed_round ? nullptr : &dirty;

    const bool split = frontier.size() >= options_.parallel_threshold;
    exec::for_each(
        split ? static_cast<unsigned>(workers_.size()) : 1u, frontier.size(),
        [&](unsigned worker, std::size_t i) {
          changed[i] = process_device(devices[frontier[i]], *workers_[worker],
                                      deltas_[i], round_dirty)
                           ? 1
                           : 0;
        });

    // Commit each changed device's delta, record the prefixes whose export
    // changed for the next round's dirty set, and enqueue the usable-link
    // neighbors of each device whose exports changed as the next frontier.
    // A device whose next hops alone changed keeps its neighbors' inputs:
    // its FIB is rebuilt, but nothing propagates.
    next.clear();
    next_dirty.clear();
    bool round_changed = false;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      if (!changed[i]) continue;
      round_changed = true;
      const DeviceId d = frontier[i];
      const bool exported = commit(d, deltas_[i], next_dirty);
      // A cold run's deltas are whole RIBs: keeping them all until the next
      // round would double its peak route state.
      if (cold) deltas_[i] = Delta{};
      if (!exported) continue;
      for (const topo::LinkId lid : topology_->links_of(d)) {
        const topo::Link& link = topology_->link(lid);
        if (!link.usable()) continue;
        const DeviceId neighbor = link.other(d);
        if (!queued[neighbor]) {
          queued[neighbor] = 1;
          next.push_back(neighbor);
        }
      }
    }
    for (const DeviceId d : next) queued[d] = 0;
    // A round that changed RIBs but no export ends the run here; the
    // synchronous reference would spend one more round finding nothing to
    // change, and rounds() counts it the same way.
    if (next.empty() && round_changed && rounds < kMaxRounds) ++rounds;
    frontier = next;
    sort_unique(next_dirty);
    std::swap(dirty, next_dirty);
    seed_round = false;
  }
  return rounds;
}

bool BgpSimulator::commit(DeviceId d, const Delta& delta,
                          std::vector<net::Prefix>& exported) {
  // Logged first: the arena length before this commit's hop lists land.
  const UndoEntry* undo = undo_entry(d);
  Rib& rib = ribs_[d];
  records_.clear();
  for (const RibEntry& entry : delta.entries) {
    records_.push_back(rib.adopt(delta.entries, entry));
  }
  displaced_.clear();
  rib.splice(records_, delta.withdrawn, &displaced_);
  const std::size_t exported_before = exported.size();
  Change& change = invalidate_fib(d);
  for (std::size_t k = 0; k < displaced_.size(); ++k) {
    const Rib::Displaced& old = displaced_[k];
    change.prefixes.push_back(old.record.prefix);
    // Added, withdrawn, or announced differently.
    if (!old.present || k >= records_.size() ||
        !exports_equal(old.record, records_[k])) {
      exported.push_back(old.record.prefix);
    }
    if (undo != nullptr) undo_routes_.push_back({d, old});
  }
  // A caller that never drains the record (a long reconverge loop) keeps
  // it bounded by the prefixes it names.
  if (change.prefixes.size() > 2 * rib.size() + 64) {
    sort_unique(change.prefixes);
  }
  // Outside a trial nothing references a displaced hop list any more. A
  // looser bound (dead > live) left drift runs ~4 MB higher in peak RSS.
  if (undo == nullptr && rib.dead_hops() * 4 > rib.live_hops()) {
    rib.compact_arena();
  }
  return exported.size() != exported_before;
}

bool BgpSimulator::process_device(const topo::Device& d, WorkerState& state,
                                  Delta& out,
                                  const std::vector<net::Prefix>* dirty) const {
  PathTable& table = global_path_table();
  Rib& fresh = state.fresh;
  fresh.clear();
  const auto is_dirty = [dirty](const net::Prefix& p) {
    return dirty == nullptr ||
           std::binary_search(dirty->begin(), dirty->end(), p);
  };
  std::size_t connected_count = 0;
  if (d.role == topo::DeviceRole::kTor) {
    for (const net::Prefix& p : d.hosted_prefixes) {
      if (!is_dirty(p)) continue;
      fresh.append(p, kEmptyPathId, {}, /*connected=*/true, d.datacenter);
    }
    connected_count = fresh.size();
  } else if (d.role == topo::DeviceRole::kRegionalSpine) {
    if (is_dirty(net::Prefix::default_route())) {
      fresh.append(net::Prefix::default_route(), kEmptyPathId, {},
                   /*connected=*/true, topo::kNoDatacenter);
      connected_count = 1;
    }
  }

  // Collect acceptable announcements from all usable sessions. Path views
  // borrow the global PathTable's storage; rewrites (connected origination,
  // private-ASN stripping) are pure functions of their inputs, so the
  // per-worker memos reduce them to one hash probe with no stripe-lock
  // traffic. In dirty mode only the neighbors' entries for dirty prefixes
  // are considered — entries for clean prefixes are bit-identical to last
  // round, so they cannot change this device's selection.
  state.candidates.clear();
  for (const topo::LinkId lid : topology_->links_of(d.id)) {
    const topo::Link& link = topology_->link(lid);
    if (!link.usable()) continue;
    const topo::Device& n = topology_->device(link.other(d.id));

    const auto consider = [&](const RibEntry& entry) {
      // -- export policy of n toward d --
      PathId path_id;
      if (entry.connected) {
        const auto [it, inserted] = state.origin_memo.try_emplace(n.asn, 0);
        if (inserted) {
          it->second = table.intern(std::span<const Asn>(&n.asn, 1));
        }
        path_id = it->second;
      } else {
        path_id = entry.path;  // already begins with n.asn
      }
      std::span<const Asn> path = table.view(path_id);
      if (n.role == topo::DeviceRole::kRegionalSpine) {
        // Never hairpin a datacenter's own routes back into it.
        if (entry.origin_datacenter != topo::kNoDatacenter &&
            d.datacenter == entry.origin_datacenter) {
          return;
        }
        // Strip private ASNs from the relayed tail (§2.1) so that
        // private-ASN reuse across datacenters cannot cause loop-prevention
        // rejections. Most relayed paths at this tier need no rewrite;
        // scan first and keep the original id on the no-op path.
        if (std::any_of(path.begin() + 1, path.end(), is_private_asn)) {
          const auto [it, inserted] = state.strip_memo.try_emplace(path_id, 0);
          if (inserted) {
            state.path_scratch.clear();
            state.path_scratch.push_back(path.front());
            for (std::size_t i = 1; i < path.size(); ++i) {
              if (!is_private_asn(path[i])) {
                state.path_scratch.push_back(path[i]);
              }
            }
            it->second = table.intern(state.path_scratch);
          }
          path_id = it->second;
          path = table.view(path_id);
        }
      }

      // -- import policy of d --
      if (snap_.reject_default[d.id] && entry.prefix.is_default()) {
        return;  // route-map misconfiguration (§2.6.2 "Policy Errors")
      }
      if (d.role == topo::DeviceRole::kRegionalSpine) {
        // Tier-peer rule: never re-import a route that already traversed
        // the regional layer (keeps regionals on their own originated
        // default and forbids regional-spine valleys).
        if (!std::all_of(path.begin(), path.end(), is_private_asn)) return;
      } else if (d.role != topo::DeviceRole::kTor) {
        // ToR upstream sessions accept paths containing the (reused) ToR
        // ASN of a sibling rack (§2.1); everyone else rejects own-ASN
        // paths.
        if (std::find(path.begin(), path.end(), d.asn) != path.end()) {
          return;
        }
      }

      ++state.routes_propagated;
      state.candidates.push_back(
          Candidate{.prefix = entry.prefix,
                    .neighbor = n.id,
                    .path_id = path_id,
                    .path = path,
                    .origin_datacenter = entry.origin_datacenter});
    };

    if (dirty == nullptr) {
      for (const RibEntry& entry : ribs_[n.id]) consider(entry);
    } else {
      // Monotone merge of the sorted dirty set against the neighbor's
      // sorted entries: linear two-pointer when the dirty set is a big
      // fraction of the RIB (early cold rounds), binary-search skips when
      // it is narrow (warm reconvergence tails).
      const auto& neighbor_entries = ribs_[n.id].entries();
      if (dirty->size() * 8 >= neighbor_entries.size()) {
        auto dit = dirty->begin();
        for (const RibEntry& entry : neighbor_entries) {
          while (dit != dirty->end() && *dit < entry.prefix) ++dit;
          if (dit == dirty->end()) break;
          if (*dit == entry.prefix) consider(entry);
        }
      } else {
        auto eit = neighbor_entries.begin();
        for (const net::Prefix& p : *dirty) {
          eit = std::lower_bound(eit, neighbor_entries.end(), p,
                                 [](const RibEntry& e, const net::Prefix& pp) {
                                   return e.prefix < pp;
                                 });
          if (eit == neighbor_entries.end()) break;
          if (eit->prefix == p) consider(*eit++);
        }
      }
    }
  }

  std::sort(state.candidates.begin(), state.candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.prefix < b.prefix;
            });

  // Best-path selection per prefix group: shortest AS-path wins, ECMP
  // across all equally-short neighbors, deterministic (lexicographically
  // least) representative path. Locally originated entries always win.
  for (std::size_t i = 0; i < state.candidates.size();) {
    std::size_t j = i;
    while (j < state.candidates.size() &&
           state.candidates[j].prefix == state.candidates[i].prefix) {
      ++j;
    }
    const net::Prefix prefix = state.candidates[i].prefix;
    bool owned = false;
    for (std::size_t c = 0; c < connected_count; ++c) {
      if (fresh.entries()[c].prefix == prefix) {
        owned = true;
        break;
      }
    }
    if (!owned) {
      std::size_t best_len = SIZE_MAX;
      for (std::size_t k = i; k < j; ++k) {
        best_len = std::min(best_len, state.candidates[k].path.size());
      }
      state.hops_scratch.clear();
      std::span<const Asn> chosen;
      PathId chosen_id = kEmptyPathId;
      bool have_chosen = false;
      topo::DatacenterId origin = 0;
      for (std::size_t k = i; k < j; ++k) {
        const Candidate& c = state.candidates[k];
        if (c.path.size() != best_len) continue;
        state.hops_scratch.push_back(c.neighbor);
        if (!have_chosen ||
            std::ranges::lexicographical_compare(c.path, chosen)) {
          chosen = c.path;
          chosen_id = c.path_id;
          origin = c.origin_datacenter;
          have_chosen = true;
        }
      }
      canonicalize(state.hops_scratch);
      // Prepend our own ASN; memoized on (asn, chosen path) since prefix
      // groups across devices overwhelmingly select the same paths.
      const std::uint64_t key =
          (static_cast<std::uint64_t>(d.asn) << 32) | chosen_id;
      const auto [it, inserted] = state.prepend_memo.try_emplace(key, 0);
      if (inserted) {
        state.path_scratch.clear();
        state.path_scratch.reserve(chosen.size() + 1);
        state.path_scratch.push_back(d.asn);
        state.path_scratch.insert(state.path_scratch.end(), chosen.begin(),
                                  chosen.end());
        it->second = table.intern(state.path_scratch);
      }
      fresh.append(prefix, it->second, state.hops_scratch,
                   /*connected=*/false, origin);
    }
    i = j;
  }

  // Change detection happens here in the worker (parallel) rather than in
  // the single-threaded commit, which receives only the entries that
  // differ; `fresh` stays this worker's scratch.
  fresh.sort_by_prefix();
  out.entries.clear();
  out.withdrawn.clear();
  const Rib& old = ribs_[d.id];
  auto fit = fresh.begin();
  const auto compare = [&](const RibEntry* old_entry, const net::Prefix& p) {
    if (fit != fresh.end() && fit->prefix == p) {
      if (old_entry == nullptr ||
          !Rib::entry_equal(old, *old_entry, fresh, *fit)) {
        out.entries.append_from(fresh, *fit);  // added or modified
      }
      ++fit;
    } else if (old_entry != nullptr) {
      out.withdrawn.push_back(p);
    }
  };
  if (dirty == nullptr) {
    // Full recompute: one merge walk over both RIBs.
    for (const RibEntry& old_entry : old) {
      while (fit != fresh.end() && fit->prefix < old_entry.prefix) {
        compare(nullptr, fit->prefix);
      }
      compare(&old_entry, old_entry.prefix);
    }
    while (fit != fresh.end()) compare(nullptr, fit->prefix);
  } else {
    // `fresh` holds exactly the surviving dirty-prefix routes: look each
    // dirty prefix up in the old RIB, by a forward binary search when the
    // dirty set is narrow (warm tails), a linear walk when it is not.
    const bool narrow = dirty->size() * 8 < old.size();
    auto oit = old.begin();
    for (const net::Prefix& p : *dirty) {
      if (narrow) {
        oit = std::lower_bound(oit, old.end(), p,
                               [](const RibEntry& e, const net::Prefix& pp) {
                                 return e.prefix < pp;
                               });
      } else {
        while (oit != old.end() && oit->prefix < p) ++oit;
      }
      compare(oit != old.end() && oit->prefix == p ? &*oit : nullptr, p);
    }
  }
  return !out.entries.empty() || !out.withdrawn.empty();
}

void BgpSimulator::publish_metrics(int rounds, bool warm) {
  if (metrics_ == nullptr) return;
  if (warm) {
    reconverge_hist_->observe(static_cast<std::uint64_t>(rounds));
  } else {
    rounds_hist_->observe(static_cast<std::uint64_t>(rounds));
  }
  std::uint64_t routes = 0;
  for (const auto& worker : workers_) {
    routes += worker->routes_propagated;
  }
  routes_counter_->inc(routes);
  paths_gauge_->set(static_cast<double>(global_path_table().size()));
}

}  // namespace dcv::routing
