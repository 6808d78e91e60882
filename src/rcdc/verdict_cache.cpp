#include "rcdc/verdict_cache.hpp"

#include <utility>

#include "obs/span.hpp"

namespace dcv::rcdc {

namespace {

/// splitmix64 finalizer: a strong 64-bit mixer.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t fingerprint(const routing::ForwardingTable& fib) {
  // Semantic content hash: each rule is hashed independently and the rule
  // hashes are combined with wrap-around addition, so neither the order
  // rules are stored in nor the order ECMP next hops arrived in changes the
  // fingerprint — two permuted-but-equivalent tables must not look changed
  // to the verdict cache. (ForwardingTable canonicalizes on add(); hashing
  // order-insensitively keeps equivalence intact for any table whose rules
  // reach us pre-built, e.g. parsed or corrupted pulls.)
  std::uint64_t table_acc = 0;
  for (const routing::Rule& rule : fib.rules()) {
    std::uint64_t hops_acc = 0;
    for (const topo::DeviceId hop : rule.next_hops) {
      hops_acc += mix64(static_cast<std::uint64_t>(hop) + 1);
    }
    std::uint64_t rule_hash =
        mix64(rule.prefix.network().value() ^
              (static_cast<std::uint64_t>(rule.prefix.length()) << 33) ^
              (rule.connected ? 1ull << 32 : 0));
    rule_hash = mix64(rule_hash ^ hops_acc ^
                      mix64(rule.next_hops.size()));
    table_acc += mix64(rule_hash);
  }
  const std::uint64_t hash = mix64(table_acc ^ fib.size());
  // Reserve 0 as the "never validated" sentinel.
  return hash == 0 ? 1 : hash;
}

void VerdictCache::set_epoch(std::uint64_t epoch, std::size_t devices) {
  if (epoch == epoch_) return;
  epoch_ = epoch;
  entries_.assign(devices, Entry{});
}

VerdictCache::Lookup VerdictCache::lookup(topo::DeviceId device,
                                          const routing::FibPtr& table,
                                          obs::Histogram* fingerprint_ns) const {
  const Entry& entry = entries_[device];
  if (entry.table != nullptr && entry.table == table) {
    return {.violations = &entry.violations};
  }
  obs::ScopedTimer timer(fingerprint_ns);
  const std::uint64_t print = fingerprint(*table);
  timer.stop();
  return {.violations = print == entry.fingerprint ? &entry.violations
                                                   : nullptr,
          .fingerprint = print};
}

void VerdictCache::adopt(topo::DeviceId device, routing::FibPtr table) {
  entries_[device].table = std::move(table);
}

const std::vector<Violation>& VerdictCache::store(
    topo::DeviceId device, routing::FibPtr table, std::uint64_t fingerprint,
    std::vector<Violation> violations) {
  Entry& entry = entries_[device];
  entry.table = std::move(table);
  entry.fingerprint = fingerprint;
  entry.violations = std::move(violations);
  return entry.violations;
}

}  // namespace dcv::rcdc
