#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/health.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "rcdc/contract_gen.hpp"
#include "rcdc/precheck.hpp"
#include "secguru/engine_pool.hpp"
#include "topology/topology.hpp"

namespace dcv::gate {

struct GateConfig {
  /// Emulator and validation threads per precheck batch; 0 =
  /// exec::default_threads().
  unsigned precheck_threads = 0;
  /// Coalescing window: a precheck arriving while no batch is running
  /// waits this long for same-epoch companions before the emulator pass
  /// starts. 0 disables coalescing (every request is its own batch).
  std::chrono::milliseconds batch_window{2};
  /// Changes per emulator batch; requests beyond the cap roll into the
  /// next batch.
  std::size_t max_batch = 16;
  /// FastEngines kept warm for concurrent POST /nsg-check traffic.
  std::size_t nsg_engines = 2;
  /// Per-endpoint request caps (change plans and NSG tables are far
  /// bigger than scrape GETs; these override the server's default).
  std::size_t precheck_body_bytes = 1 << 20;
  std::size_t nsg_body_bytes = 1 << 20;
  rcdc::ContractGenOptions contract_options = {};
  secguru::FastEngineConfig engine_config = {};
  /// When set (must outlive the service), receives dcv_gate_* series and
  /// the precheck session's dcv_precheck_* series.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The change-gate service (§2.7 + §3.4 as one serving layer): vets
/// proposed network changes and NSG updates *before* rollout, over HTTP.
///
///   POST /precheck   body: a change plan (see rcdc/precheck_io.hpp).
///                    Each plan is parsed with parse-time name resolution
///                    (bad plans 400 without touching the emulator) and
///                    checked by a persistent warm PrecheckSession.
///                    Requests arriving within `batch_window` coalesce
///                    into one emulator batch: K changes cost K warm
///                    reconvergences instead of K cold clones, each undone
///                    from the emulator's undo log rather than by a second
///                    reconvergence, and each changed device rechecks only
///                    the contracts a changed rule touches. 200 carries
///                    the per-change verdicts; "decision: approved" on the
///                    first line iff every change passed.
///   POST /nsg-check  query: ?vnet=NAME&space=CIDR&db=0|1 (db default 1);
///                    body: the Figure 9 tabular NSG. Runs the SecGuru
///                    NsgGate (database-backup contracts) on a FastEngine
///                    leased from a fixed pool. 200 with
///                    "decision: accepted" or "decision: rejected" plus
///                    the failed contracts and witness packets.
///   GET  /gatez      plain-text serving counters (batches, amortization,
///                    divergence-proportionality evidence: devices
///                    revalidated and skipped, contracts rechecked).
///
/// A session is bound to the production topology epoch it cloned; when the
/// live epoch moves on, prechecks answer 409 until a fresh gate is built.
/// Handlers are thread-safe: the precheck batcher serializes emulator
/// access (callers block on their batch), NSG checks run concurrently up
/// to the engine-pool size, and overload beyond the HTTP server's
/// admission bounds is already 429'd before reaching the gate.
class GateService {
 public:
  /// Builds the warm session (one cold converge + baseline validation) and
  /// the NSG engine pool. `production` must outlive the service.
  explicit GateService(const topo::Topology& production,
                       GateConfig config = {});

  GateService(const GateService&) = delete;
  GateService& operator=(const GateService&) = delete;

  /// Registers the gate routes (with their per-endpoint body caps) on the
  /// server and remembers it for saturation-aware readiness. Call before
  /// the server starts.
  void attach(obs::HttpServer& server);

  /// Route handlers, usable directly (without sockets) by tests and
  /// benches; attach() wires these same functions.
  [[nodiscard]] obs::HttpResponse handle_precheck(
      const obs::HttpRequest& request);
  [[nodiscard]] obs::HttpResponse handle_nsg_check(
      const obs::HttpRequest& request);
  [[nodiscard]] obs::HttpResponse handle_gatez(
      const obs::HttpRequest& request) const;

  /// Wraps a readiness probe with the gate's admission signal: not ready
  /// while the attached server's dispatch queue sits above
  /// `max_queue_saturation` (the ReadinessRules semantics, applied to the
  /// serving layer).
  [[nodiscard]] obs::HealthProbe wrap_probe(obs::HealthProbe inner,
                                            double max_queue_saturation) const;

  [[nodiscard]] std::uint64_t prechecks_served() const {
    return prechecks_served_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t precheck_batches() const {
    return batches_run_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t nsg_checks_served() const {
    return nsg_checks_served_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const rcdc::PrecheckSession& session() const {
    return session_;
  }

 private:
  /// One request's slot in the coalescing batcher.
  struct PendingBatch {
    std::vector<rcdc::NetworkChange> changes;
    std::vector<rcdc::PrecheckResult> results;
    bool done = false;
  };

  /// Runs `changes` through the batcher: coalesces with concurrent
  /// arrivals, blocks until this request's results are ready.
  std::vector<rcdc::PrecheckResult> run_batched(
      std::vector<rcdc::NetworkChange> changes);

  const topo::Topology* production_;
  GateConfig config_;
  rcdc::PrecheckSession session_;
  secguru::FastEnginePool nsg_pool_;
  std::atomic<const obs::HttpServer*> server_{nullptr};

  // Batcher state: requests queue under the mutex; one caller at a time
  // holds the runner role and drives the (single-threaded) session.
  std::mutex batch_mutex_;
  std::condition_variable batch_cv_;
  std::deque<PendingBatch*> waiting_;
  bool runner_active_ = false;

  std::atomic<std::uint64_t> prechecks_served_{0};
  std::atomic<std::uint64_t> batches_run_{0};
  std::atomic<std::uint64_t> nsg_checks_served_{0};

  obs::Counter* precheck_approved_ = nullptr;
  obs::Counter* precheck_rejected_ = nullptr;
  obs::Counter* nsg_accepted_ = nullptr;
  obs::Counter* nsg_rejected_ = nullptr;
  obs::Counter* batches_counter_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
};

}  // namespace dcv::gate
