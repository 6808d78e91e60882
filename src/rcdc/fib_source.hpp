#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>

#include "net/error.hpp"
#include "routing/aggregation.hpp"
#include "routing/bgp_sim.hpp"
#include "routing/fib.hpp"
#include "routing/fib_synthesizer.hpp"
#include "topology/device.hpp"
#include "topology/topology.hpp"

namespace dcv::rcdc {

/// Why a routing-table pull failed. Production pulls "take 200-800ms" and
/// fail routinely (§2.6.1, Figure 5); this taxonomy covers the failure modes
/// the fetch layer must survive.
enum class FetchErrorKind : std::uint8_t {
  /// The device did not answer within the per-fetch deadline.
  kTimeout,
  /// A transient error (connection reset, SSH churn, collector restart);
  /// an immediate or backed-off retry is likely to succeed.
  kTransient,
  /// The pull ended early: a syntactically valid but incomplete table was
  /// returned (rules missing, often including the default route).
  kTruncatedTable,
  /// The pull returned a table with garbled entries (bit flips, interleaved
  /// output): rules present but with wrong next-hop sets.
  kCorruptedEntry,
  /// The device is not reachable at all (management-plane outage, device
  /// decommissioned, or a circuit breaker refusing to try).
  kUnreachable,
};

[[nodiscard]] std::string_view to_string(FetchErrorKind kind);
std::ostream& operator<<(std::ostream& os, FetchErrorKind kind);

/// Raised by FibSource::fetch() when a pull yields no trustworthy table.
class FetchError : public Error {
 public:
  FetchError(FetchErrorKind kind, const std::string& what)
      : Error(what), kind_(kind) {}

  [[nodiscard]] FetchErrorKind kind() const { return kind_; }

 private:
  FetchErrorKind kind_;
};

/// Result of one fallible routing-table pull.
///
/// Three shapes occur:
///  * clean success — `table` set, no `error`;
///  * hard failure — no `table`, `error` says why;
///  * degraded result — both set: either garbage from the wire
///    (kTruncatedTable / kCorruptedEntry, table holds what arrived) or a
///    stale-cache fallback (`stale` set, `staleness` is the table's age).
///
/// `table` is a shared immutable handle: a source serving an unchanged table
/// hands out the same object again, so consumers may treat pointer equality
/// as content equality. Garbage tables are always new objects.
///
/// Callers that validate a degraded table should treat the verdicts as
/// lower-confidence (see RiskPolicy::assess and TriageEngine::triage).
struct FetchOutcome {
  routing::FibPtr table;
  std::optional<FetchErrorKind> error;
  /// Table served from a cache of the last good pull, not from the device.
  bool stale = false;
  /// Age of a stale table (time since it was last pulled successfully).
  std::chrono::nanoseconds staleness{0};
  /// Pull attempts consumed (0 when a circuit breaker short-circuited the
  /// fetch without touching the device).
  std::uint32_t attempts = 1;
  /// The fetch was short-circuited by an already-open circuit breaker.
  bool breaker_open = false;
  /// This fetch's failure transitioned a circuit breaker to open.
  bool breaker_tripped = false;

  [[nodiscard]] bool ok() const { return !error.has_value(); }
  [[nodiscard]] bool has_table() const { return table != nullptr; }
  /// True when the table (if any) should not be trusted at full confidence.
  [[nodiscard]] bool degraded() const {
    return stale || (error.has_value() && has_table());
  }

  [[nodiscard]] static FetchOutcome success(routing::FibPtr t) {
    FetchOutcome out;
    out.table = std::move(t);
    return out;
  }
  [[nodiscard]] static FetchOutcome failure(FetchErrorKind kind) {
    FetchOutcome out;
    out.error = kind;
    return out;
  }
  /// A degraded table that did arrive from the device (truncated/corrupt).
  [[nodiscard]] static FetchOutcome garbage(FetchErrorKind kind,
                                            routing::FibPtr t) {
    FetchOutcome out;
    out.error = kind;
    out.table = std::move(t);
    return out;
  }
};

/// Where device FIBs come from. In production this is the routing-table
/// puller of Figure 5 talking to live devices; here implementations wrap
/// the EBGP simulator (faithful, including faults), the closed-form
/// synthesizer (fault-free, arbitrarily large), or parsed device output.
///
/// try_fetch() is the one fetch path every source implements; it must be
/// safe to call concurrently (validators fan fetches out across worker
/// threads) and should report failures as outcomes rather than throw.
/// fetch() is a throwing convenience over it for callers that need a
/// trustworthy table or nothing (global checker, tracer, belief checker).
class FibSource {
 public:
  virtual ~FibSource() = default;

  FibSource() = default;
  FibSource(const FibSource&) = delete;
  FibSource& operator=(const FibSource&) = delete;

  [[nodiscard]] virtual FetchOutcome try_fetch(
      topo::DeviceId device) const = 0;

  /// The fresh or stale-cached table of a pull; throws FetchError when the
  /// pull failed or returned only garbage.
  [[nodiscard]] routing::FibPtr fetch(topo::DeviceId device) const;
};

/// FIBs produced by the EBGP route-propagation simulator over the current
/// (possibly faulty) network state. Fetches hand out the simulator's cached
/// handle — programmed from the RIB at most once per (re)convergence, the
/// same object every cycle until the device changes (see
/// dcv_bgp_fib_rebuilds_total / dcv_bgp_fib_cache_hits_total).
class SimulatorFibSource final : public FibSource {
 public:
  explicit SimulatorFibSource(const routing::BgpSimulator& simulator)
      : simulator_(&simulator) {}

  [[nodiscard]] FetchOutcome try_fetch(
      topo::DeviceId device) const override {
    return FetchOutcome::success(simulator_->fib_handle(device));
  }

 private:
  const routing::BgpSimulator* simulator_;
};

/// Decorator applying configured cluster-route aggregation (leaf-originated
/// aggregates with discard routes; aggregates instead of specifics at the
/// spine and regional layers) — the design §2.1 rejects, kept for the
/// black-holing ablation (routing::aggregate_cluster_routes). Inner
/// failures pass through as outcomes.
class AggregatingFibSource final : public FibSource {
 public:
  AggregatingFibSource(const FibSource& inner,
                       const topo::MetadataService& metadata)
      : inner_(&inner), metadata_(&metadata) {}

  [[nodiscard]] FetchOutcome try_fetch(topo::DeviceId device) const override;

 private:
  const FibSource* inner_;
  const topo::MetadataService* metadata_;
};

/// Fault-free converged FIBs synthesized on demand from metadata; O(1)
/// memory regardless of datacenter size, used for scale benchmarks.
class SynthesizedFibSource final : public FibSource {
 public:
  explicit SynthesizedFibSource(const routing::FibSynthesizer& synthesizer)
      : synthesizer_(&synthesizer) {}

  [[nodiscard]] FetchOutcome try_fetch(
      topo::DeviceId device) const override {
    return FetchOutcome::success(
        routing::share_fib(synthesizer_->fib(device)));
  }

 private:
  const routing::FibSynthesizer* synthesizer_;
};

/// FIBs parsed from `<dir>/<device name>.rt` files (Figure 2 format, as
/// dcv_topogen --tables writes), reread on every fetch. A missing file is a
/// kUnreachable failure and an unparsable one a kCorruptedEntry failure
/// with no table: one bad file costs coverage, never the run.
class TableDirFibSource final : public FibSource {
 public:
  TableDirFibSource(std::string directory, const topo::Topology& topology)
      : directory_(std::move(directory)), topology_(&topology) {}

  [[nodiscard]] FetchOutcome try_fetch(topo::DeviceId device) const override;

 private:
  std::string directory_;
  const topo::Topology* topology_;
};

}  // namespace dcv::rcdc
