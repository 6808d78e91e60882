#include "rcdc/flaky_fib_source.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace dcv::rcdc {

namespace {

/// splitmix64 — cheap, well-distributed stateless mixer; the outcome of
/// (seed, device, attempt) must not depend on call interleaving, which
/// rules out a shared stateful RNG.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t hash3(std::uint64_t seed, std::uint64_t device,
                    std::uint64_t attempt) {
  return mix(mix(mix(seed) ^ (device + 1)) ^ (attempt + 1) * 0x9E3779B9ull);
}

double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Drops the tail of the canonical rule order (descending prefix length),
/// so short prefixes — typically the default route — vanish first, exactly
/// what a pull cut off mid-stream looks like.
routing::ForwardingTable truncate_table(const routing::ForwardingTable& full,
                                        std::uint64_t h) {
  if (full.empty()) return {};
  // Keep 30-79% of the rules, at least one.
  const std::size_t keep = std::max<std::size_t>(
      1, full.size() * (30 + h % 50) / 100);
  return routing::ForwardingTable(std::vector<routing::Rule>(
      full.rules().begin(),
      full.rules().begin() + static_cast<std::ptrdiff_t>(keep)));
}

/// Damages one rule's next-hop set (drops a hop), or drops the rule
/// entirely when it has a single hop — a flipped entry in the pulled text.
routing::ForwardingTable corrupt_table(const routing::ForwardingTable& full,
                                       std::uint64_t h) {
  if (full.empty()) return {};
  std::vector<routing::Rule> rules = full.rules();
  const auto victim = rules.begin() + static_cast<std::ptrdiff_t>(
                                          h % rules.size());
  std::vector<topo::DeviceId>& hops = victim->next_hops;
  if (hops.size() <= 1) {
    rules.erase(victim);  // rule lost entirely
  } else {
    hops.erase(hops.begin() +
               static_cast<std::ptrdiff_t>((h >> 8) % hops.size()));
  }
  return routing::ForwardingTable(std::move(rules));
}

/// The fault drawn by one uniform draw `u`, rates taken cumulatively in
/// the order unreachable, timeout, transient, truncate, corrupt.
std::optional<FetchErrorKind> draw_fault(const FlakyConfig& config,
                                         double u) {
  const std::pair<double, FetchErrorKind> rates[] = {
      {config.unreachable_rate, FetchErrorKind::kUnreachable},
      {config.timeout_rate, FetchErrorKind::kTimeout},
      {config.transient_rate, FetchErrorKind::kTransient},
      {config.truncate_rate, FetchErrorKind::kTruncatedTable},
      {config.corrupt_rate, FetchErrorKind::kCorruptedEntry},
  };
  double threshold = 0.0;
  for (const auto& [rate, kind] : rates) {
    threshold += rate;
    if (u < threshold) return kind;
  }
  return std::nullopt;
}

}  // namespace

std::string FlakyFibSource::Record::to_string(
    const topo::Topology& topology) const {
  return std::string("fetch-") + std::string(rcdc::to_string(kind)) + " at " +
         topology.device(device).name + " (attempt " +
         std::to_string(attempt) + ")";
}

FetchOutcome FlakyFibSource::try_fetch(topo::DeviceId device) const {
  std::uint64_t attempt = 0;
  bool dead = false;
  {
    const std::lock_guard lock(mutex_);
    attempt = ++attempts_[device];
    dead = dead_.contains(device);
  }

  const std::uint64_t h = hash3(config_.seed, device, attempt);
  const std::optional<FetchErrorKind> fault =
      dead ? FetchErrorKind::kUnreachable : draw_fault(config_, to_unit(h));
  if (!fault) return inner_->try_fetch(device);
  {
    const std::lock_guard lock(mutex_);
    records_.push_back(
        Record{.device = device, .attempt = attempt, .kind = *fault});
  }
  if (*fault != FetchErrorKind::kTruncatedTable &&
      *fault != FetchErrorKind::kCorruptedEntry) {
    return FetchOutcome::failure(*fault);
  }
  FetchOutcome inner = inner_->try_fetch(device);
  if (!inner.ok()) return inner;
  return FetchOutcome::garbage(
      *fault, routing::share_fib(*fault == FetchErrorKind::kTruncatedTable
                                     ? truncate_table(*inner.table, h)
                                     : corrupt_table(*inner.table, h)));
}

void FlakyFibSource::mark_dead(topo::DeviceId device) {
  const std::lock_guard lock(mutex_);
  dead_.insert(device);
}

void FlakyFibSource::revive(topo::DeviceId device) {
  const std::lock_guard lock(mutex_);
  dead_.erase(device);
}

bool FlakyFibSource::is_dead(topo::DeviceId device) const {
  const std::lock_guard lock(mutex_);
  return dead_.contains(device);
}

std::vector<FlakyFibSource::Record> FlakyFibSource::records() const {
  const std::lock_guard lock(mutex_);
  return records_;
}

void FlakyFibSource::clear_records() {
  const std::lock_guard lock(mutex_);
  records_.clear();
}

}  // namespace dcv::rcdc
