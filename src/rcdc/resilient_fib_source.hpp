#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "rcdc/fib_source.hpp"

namespace dcv::rcdc {

/// Time source for the resilience layer. Injected so the retry/backoff and
/// circuit-breaker state machines are testable with a deterministic clock —
/// tests must never sleep wall-clock time.
class FetchClock {
 public:
  virtual ~FetchClock() = default;

  FetchClock() = default;
  FetchClock(const FetchClock&) = delete;
  FetchClock& operator=(const FetchClock&) = delete;

  [[nodiscard]] virtual std::chrono::steady_clock::time_point now() = 0;
  virtual void sleep_for(std::chrono::nanoseconds duration) = 0;
};

/// The real clock: std::chrono::steady_clock + std::this_thread::sleep_for.
class SystemFetchClock final : public FetchClock {
 public:
  [[nodiscard]] std::chrono::steady_clock::time_point now() override;
  void sleep_for(std::chrono::nanoseconds duration) override;
};

/// A manual clock for tests and benchmarks: sleep_for() advances simulated
/// time instantly instead of blocking. Thread-safe (the pipeline's puller
/// workers share one clock).
class ManualFetchClock final : public FetchClock {
 public:
  [[nodiscard]] std::chrono::steady_clock::time_point now() override;
  void sleep_for(std::chrono::nanoseconds duration) override;
  /// Moves time forward without a sleeper (e.g. "the cool-down elapses
  /// between monitoring cycles").
  void advance(std::chrono::nanoseconds duration);

 private:
  std::mutex mutex_;
  std::chrono::steady_clock::time_point now_{};
};

/// Retry schedule for one fetch: exponential backoff with jitter under an
/// overall per-fetch deadline.
struct RetryPolicy {
  /// Total pull attempts per fetch (1 = no retries).
  std::uint32_t max_attempts = 3;
  std::chrono::nanoseconds initial_backoff = std::chrono::milliseconds(50);
  double backoff_multiplier = 2.0;
  std::chrono::nanoseconds max_backoff = std::chrono::seconds(2);
  /// Backoff is scaled by a deterministic factor in [1-jitter, 1+jitter]
  /// to decorrelate retry storms across devices.
  double jitter = 0.2;
  /// Overall budget for one fetch (attempts + backoffs). No new attempt is
  /// started once the budget is exhausted.
  std::chrono::nanoseconds fetch_deadline = std::chrono::seconds(10);
};

/// Per-device circuit breaker: after `failure_threshold` consecutive
/// exhausted fetches the breaker opens and fetches short-circuit (no device
/// contact) until `cool_down` elapses; then one half-open probe is allowed —
/// success closes the breaker, failure re-opens it for another cool-down.
struct BreakerPolicy {
  std::uint32_t failure_threshold = 5;
  std::chrono::nanoseconds cool_down = std::chrono::seconds(30);
};

struct ResilienceConfig {
  RetryPolicy retry;
  BreakerPolicy breaker;
  /// Serve the last successfully pulled table (tagged stale, with its age)
  /// when a fetch fails outright or is short-circuited by the breaker.
  bool serve_stale = true;
  std::uint64_t seed = 0;
  /// Optional metrics sink (must outlive the source). When set, every fetch
  /// records the dcv_fetch_* series: attempts histogram, retry/backoff/
  /// deadline/stale/short-circuit counters, and breaker transitions by
  /// target state. Null disables instrumentation entirely.
  obs::MetricsRegistry* metrics = nullptr;
};

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

[[nodiscard]] std::string_view to_string(BreakerState state);

/// Cumulative counters across all fetches through one ResilientFibSource.
struct ResilienceStats {
  std::uint64_t fetches = 0;
  std::uint64_t retries = 0;
  /// Fetches that ended without a fresh table (stale fallback or failure).
  std::uint64_t exhausted = 0;
  std::uint64_t breaker_opens = 0;
  /// Fetches short-circuited by an open breaker (device never contacted).
  std::uint64_t short_circuits = 0;
  std::uint64_t half_open_probes = 0;
  std::uint64_t stale_served = 0;
  /// Retry loops cut short because the next backoff would overrun the
  /// per-fetch deadline (attempt budget not yet exhausted).
  std::uint64_t deadline_hits = 0;
};

/// Decorator that gives any FibSource the failure-handling a production
/// routing-table puller needs (§2.6.1): retries with exponential backoff +
/// jitter under a per-fetch deadline, a per-device circuit breaker so
/// persistently dead devices stop consuming the retry budget of every
/// cycle, and a stale-table cache so one flaky pull degrades confidence
/// instead of coverage.
///
/// try_fetch() never throws; the worst outcome is a FetchOutcome with no
/// table. Thread-safe: validator/puller workers fan fetches out
/// concurrently; breaker and cache state share one mutex, and backoff
/// sleeps happen outside it.
class ResilientFibSource final : public FibSource {
 public:
  /// `clock` defaults to the system clock; pass a ManualFetchClock in tests.
  /// The clock must outlive the source.
  ResilientFibSource(const FibSource& inner, ResilienceConfig config,
                     FetchClock* clock = nullptr);

  [[nodiscard]] FetchOutcome try_fetch(topo::DeviceId device) const override;

  [[nodiscard]] ResilienceStats stats() const;
  [[nodiscard]] BreakerState breaker_state(topo::DeviceId device) const;
  [[nodiscard]] const ResilienceConfig& config() const { return config_; }

 private:
  struct DeviceState {
    BreakerState breaker = BreakerState::kClosed;
    std::uint32_t consecutive_failures = 0;
    std::chrono::steady_clock::time_point opened_at{};
    /// A half-open probe is in flight; concurrent fetches short-circuit.
    bool probe_inflight = false;
    /// Handle of the last good pull (null until one succeeds); a stale
    /// fallback serves this very object.
    routing::FibPtr cached_table;
    std::chrono::steady_clock::time_point cached_at{};
  };

  [[nodiscard]] std::chrono::nanoseconds backoff_before(
      topo::DeviceId device, std::uint32_t attempt) const;

  const FibSource* inner_;
  ResilienceConfig config_;
  FetchClock* clock_;
  mutable SystemFetchClock system_clock_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<topo::DeviceId, DeviceState> state_;
  mutable ResilienceStats stats_;

  // Registry handles; all null when config_.metrics is null.
  obs::Histogram* attempts_hist_ = nullptr;
  obs::Counter* attempts_total_ = nullptr;
  obs::Counter* retries_total_ = nullptr;
  obs::Counter* backoff_sleep_ns_total_ = nullptr;
  obs::Counter* deadline_hits_total_ = nullptr;
  obs::Counter* stale_served_total_ = nullptr;
  obs::Counter* short_circuits_total_ = nullptr;
  obs::Counter* breaker_to_open_ = nullptr;
  obs::Counter* breaker_to_half_open_ = nullptr;
  obs::Counter* breaker_to_closed_ = nullptr;
};

}  // namespace dcv::rcdc
