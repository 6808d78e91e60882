#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rcdc/fib_source.hpp"
#include "topology/topology.hpp"

namespace dcv::rcdc {

/// Per-attempt injection rates of the fetch-layer failure modes. Rates are
/// probabilities in [0, 1] and are evaluated cumulatively on one uniform
/// draw per attempt, in the order unreachable, timeout, transient,
/// truncate, corrupt (so their sum should stay ≤ 1).
struct FlakyConfig {
  double unreachable_rate = 0.0;
  double timeout_rate = 0.0;
  double transient_rate = 0.0;
  double truncate_rate = 0.0;
  double corrupt_rate = 0.0;
  std::uint64_t seed = 0;
};

/// Decorator that deterministically injects fetch-layer failures in front
/// of any FibSource, so the monitoring stack can be exercised against the
/// failure regime of §2.6.1 without live devices.
///
/// Determinism: the outcome of attempt n for device d is a pure function of
/// (seed, d, n) — independent of thread interleaving — so runs with the
/// same seed reproduce the same failure schedule. Per-device attempt
/// counters advance on every try_fetch() (and so fetch()) call.
///
/// Truncation and corruption return *realistic garbage*: a syntactically
/// valid ForwardingTable that is missing its tail (often including the
/// default route) or has a damaged next-hop set, tagged with the matching
/// FetchErrorKind so resilient callers can retry while naive callers
/// validate what they got.
///
/// Injected failures are recorded as ground truth (like
/// topo::FaultInjector::records() for network faults): the union of the
/// two record streams is the full explanation of everything a validator
/// observes — network-layer faults surface as contract violations, fetch
/// -layer faults as failed/degraded pulls.
class FlakyFibSource final : public FibSource {
 public:
  /// One injected fetch fault, kept for ground truth.
  struct Record {
    topo::DeviceId device = topo::kInvalidDevice;
    /// 1-based attempt index at which the fault fired (per device).
    std::uint64_t attempt = 0;
    FetchErrorKind kind = FetchErrorKind::kTransient;

    [[nodiscard]] std::string to_string(const topo::Topology& topology) const;
  };

  FlakyFibSource(const FibSource& inner, FlakyConfig config)
      : inner_(&inner), config_(config) {}

  /// Rolls the per-device failure schedule forward one attempt and either
  /// passes the inner outcome through untouched (same table handle), fails,
  /// or returns a degraded copy of the inner table. fetch() raises
  /// FetchError on every injected fault — the pre-resilience behavior ("the
  /// whole run stalls on the first flaky device").
  [[nodiscard]] FetchOutcome try_fetch(topo::DeviceId device) const override;

  /// Marks a device persistently unreachable regardless of rates (a dead
  /// device: management-plane outage). Every attempt fails kUnreachable
  /// until revive() — the workload the circuit breaker exists for.
  void mark_dead(topo::DeviceId device);
  void revive(topo::DeviceId device);
  [[nodiscard]] bool is_dead(topo::DeviceId device) const;

  /// Ground truth of every injected fault so far (copy; thread-safe).
  [[nodiscard]] std::vector<Record> records() const;
  void clear_records();

  [[nodiscard]] const FlakyConfig& config() const { return config_; }

 private:
  const FibSource* inner_;
  FlakyConfig config_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<topo::DeviceId, std::uint64_t> attempts_;
  mutable std::vector<Record> records_;
  std::unordered_set<topo::DeviceId> dead_;
};

}  // namespace dcv::rcdc
