#include "rcdc/incremental.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

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
  // to the incremental validator. (ForwardingTable canonicalizes on add();
  // hashing order-insensitively keeps equivalence intact for any table
  // whose rules reach us pre-built, e.g. parsed or corrupted pulls.)
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

IncrementalValidator::IncrementalValidator(
    const topo::MetadataService& metadata, VerifierFactory verifier_factory,
    ContractGenOptions options, obs::MetricsRegistry* metrics)
    : metadata_(&metadata),
      verifier_factory_(std::move(verifier_factory)),
      generator_(metadata, options),
      fingerprints_(metadata.topology().device_count(), 0),
      cached_violations_(metadata.topology().device_count()) {
  if (metrics != nullptr) {
    fingerprint_ns_ = &metrics->histogram(
        "dcv_incremental_fingerprint_ns",
        "Time to fingerprint one device's forwarding table");
    revalidated_total_ = &metrics->counter(
        "dcv_incremental_devices_revalidated_total",
        "Devices re-verified because their FIB fingerprint changed");
    skipped_total_ = &metrics->counter(
        "dcv_incremental_devices_skipped_total",
        "Devices whose cached verdicts were reused (fingerprint unchanged)");
    revalidation_ratio_ = &metrics->gauge(
        "dcv_incremental_revalidation_ratio",
        "Fraction of devices re-verified in the latest cycle");
  }
}

IncrementalValidator::CycleResult IncrementalValidator::run_cycle(
    const FibSource& fibs, unsigned threads) {
  const std::size_t device_count = metadata_->topology().device_count();
  // Clamp the pool to the work available.
  threads = std::clamp(
      threads, 1u,
      static_cast<unsigned>(std::max<std::size_t>(1, device_count)));

  // One immutable plan for this cycle. A topology-epoch change invalidates
  // every cached verdict: contracts may have changed for any device, so the
  // fingerprint shortcut is no longer sound and everything revalidates.
  const ContractPlanPtr plan = generator_.plan();
  if (plan->epoch() != plan_epoch_) {
    plan_epoch_ = plan->epoch();
    fingerprints_.assign(device_count, 0);
    cached_violations_.assign(device_count, {});
  }

  std::atomic<std::size_t> next_index{0};
  std::atomic<std::size_t> revalidated{0};
  std::atomic<std::size_t> contracts_checked{0};

  const auto worker = [&] {
    const auto verifier = verifier_factory_();
    while (true) {
      const std::size_t device =
          next_index.fetch_add(1, std::memory_order_relaxed);
      if (device >= device_count) break;
      const routing::FibPtr fib =
          fibs.fetch(static_cast<topo::DeviceId>(device));
      obs::ScopedTimer fingerprint_timer(fingerprint_ns_);
      const std::uint64_t print = fingerprint(*fib);
      fingerprint_timer.stop();
      if (print == fingerprints_[device]) continue;  // unchanged: reuse
      const std::span<const Contract> contracts =
          plan->contracts_for(static_cast<topo::DeviceId>(device));
      cached_violations_[device] = verifier->check(
          *fib, contracts, static_cast<topo::DeviceId>(device));
      fingerprints_[device] = print;
      revalidated.fetch_add(1, std::memory_order_relaxed);
      contracts_checked.fetch_add(contracts.size(),
                                  std::memory_order_relaxed);
    }
  };
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  }

  CycleResult result;
  result.devices_total = device_count;
  result.devices_revalidated = revalidated.load();
  result.contracts_checked = contracts_checked.load();
  if (revalidated_total_ != nullptr) {
    revalidated_total_->inc(result.devices_revalidated);
    skipped_total_->inc(result.devices_total - result.devices_revalidated);
    revalidation_ratio_->set(
        result.devices_total == 0
            ? 0.0
            : static_cast<double>(result.devices_revalidated) /
                  static_cast<double>(result.devices_total));
  }
  for (const auto& device_violations : cached_violations_) {
    result.violations.insert(result.violations.end(),
                             device_violations.begin(),
                             device_violations.end());
  }
  return result;
}

void IncrementalValidator::reset() {
  std::fill(fingerprints_.begin(), fingerprints_.end(), 0);
  for (auto& cache : cached_violations_) cache.clear();
}

}  // namespace dcv::rcdc
