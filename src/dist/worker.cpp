#include "dist/worker.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics_serde.hpp"
#include "obs/span_serde.hpp"
#include "rcdc/verdict_cache.hpp"

namespace dcv::dist {

WorkerSession::WorkerSession(const rcdc::FibSource& fibs,
                             rcdc::VerifierFactory verifier_factory,
                             WorkerSessionConfig config)
    : fibs_(&fibs),
      verifier_factory_(std::move(verifier_factory)),
      config_(std::move(config)),
      metrics_(config_.metrics),
      clock_(config_.clock != nullptr ? config_.clock : &default_clock_) {}

SessionEnd WorkerSession::run(Transport& transport) {
  peer_tx_ns_ = 0;
  peer_rx_ns_ = 0;
  HelloMsg hello;
  hello.worker_id = config_.id;
  hello.topology_epoch = config_.topology_epoch;
  hello.send_ns =
      static_cast<std::uint64_t>(clock_->now().time_since_epoch().count());
  if (!transport.send(encode(hello))) return SessionEnd::kConnectionLost;

  // Wait for the welcome (bounded): the coordinator may instead reject us
  // by closing the connection.
  std::chrono::nanoseconds heartbeat_interval{0};
  const auto handshake_deadline = clock_->now() + config_.handshake_deadline;
  while (true) {
    std::optional<Frame> frame = transport.poll();
    if (frame.has_value()) {
      if (frame->type != MsgType::kWelcome) return SessionEnd::kConnectionLost;
      const std::optional<WelcomeMsg> welcome = decode_welcome(frame->payload);
      if (!welcome.has_value()) return SessionEnd::kConnectionLost;
      if (welcome->send_ns != 0) {
        peer_tx_ns_ = welcome->send_ns;
        peer_rx_ns_ = static_cast<std::uint64_t>(
            clock_->now().time_since_epoch().count());
      }
      heartbeat_interval =
          std::chrono::nanoseconds(welcome->heartbeat_interval_ns);
      break;
    }
    if (transport.closed() || clock_->now() >= handshake_deadline) {
      return SessionEnd::kConnectionLost;
    }
    clock_->sleep_for(config_.poll_interval);
  }

  while (true) {
    std::optional<Frame> frame = transport.poll();
    if (!frame.has_value()) {
      if (transport.closed()) return SessionEnd::kConnectionLost;
      clock_->sleep_for(config_.poll_interval);
      continue;
    }
    switch (frame->type) {
      case MsgType::kShutdown:
        return SessionEnd::kShutdown;
      case MsgType::kAssign: {
        const std::optional<AssignMsg> assignment =
            decode_assign(frame->payload);
        if (!assignment.has_value()) return SessionEnd::kConnectionLost;
        if (assignment->send_ns != 0) {
          peer_tx_ns_ = assignment->send_ns;
          peer_rx_ns_ = static_cast<std::uint64_t>(
              clock_->now().time_since_epoch().count());
        }
        if (!validate_shard(*assignment, transport, heartbeat_interval)) {
          return SessionEnd::kConnectionLost;
        }
        break;
      }
      default:
        // Welcome replays and worker-role frames are protocol noise; the
        // connection is the recovery unit.
        return SessionEnd::kConnectionLost;
    }
  }
}

bool WorkerSession::validate_shard(
    const AssignMsg& assignment, Transport& transport,
    std::chrono::nanoseconds heartbeat_interval) {
  const auto start = clock_->now();
  auto last_heartbeat = start;
  rcdc::StepTally tally;
  rcdc::DeviceStep step(verifier_factory_, tally, metrics_);

  ResultMsg result;
  result.shard_id = assignment.shard_id;
  result.attempt = assignment.attempt;
  result.devices_checked = assignment.devices.size();

  // The shard's span tree, shipped to the coordinator on the result frame
  // with *absolute* local-clock starts (the merger rebases them by the
  // estimated offset). Bounded so a huge shard cannot inflate the result
  // frame; the root span always ships, so children stay parentable.
  constexpr std::size_t kMaxTraceEventsPerShard = 8192;
  const std::uint64_t shard_span = obs::allocate_span_id();
  std::vector<obs::TraceEvent> trace_events;
  std::uint64_t trace_dropped = 0;
  const auto add_span = [&](std::string_view name,
                            std::chrono::steady_clock::time_point span_start,
                            std::chrono::nanoseconds duration) {
    if (trace_events.size() >= kMaxTraceEventsPerShard) {
      ++trace_dropped;
      return;
    }
    trace_events.push_back({std::string(name), obs::allocate_span_id(),
                            shard_span, assignment.cycle_id,
                            obs::thread_index(),
                            span_start.time_since_epoch(), duration});
    if (config_.trace != nullptr) {
      const obs::TraceEvent& event = trace_events.back();
      config_.trace->record_span(name, event.id, shard_span,
                                 assignment.cycle_id, span_start, duration);
    }
  };

  const std::chrono::nanoseconds scaled_latency{
      static_cast<std::int64_t>(std::llround(
          static_cast<double>(config_.fetch_latency.count()) *
          std::max(0.0, config_.time_scale)))};

  std::uint32_t done = 0;
  for (const DeviceWork& work : assignment.devices) {
    if (heartbeat_interval.count() > 0 &&
        clock_->now() - last_heartbeat >= heartbeat_interval) {
      HeartbeatMsg heartbeat;
      heartbeat.shard_id = assignment.shard_id;
      heartbeat.attempt = assignment.attempt;
      heartbeat.devices_done = done;
      heartbeat.send_ns = static_cast<std::uint64_t>(
          clock_->now().time_since_epoch().count());
      heartbeat.peer_tx_ns = peer_tx_ns_;
      heartbeat.peer_rx_ns = peer_rx_ns_;
      if (!transport.send(encode(heartbeat))) return false;
      last_heartbeat = clock_->now();
    }
    ++done;
    if (work.contracts.empty()) continue;
    const auto fetch_start = clock_->now();
    const rcdc::FetchOutcome outcome = fibs_->try_fetch(work.device);
    if (scaled_latency.count() > 0) clock_->sleep_for(scaled_latency);
    const auto fetch_elapsed = clock_->now() - fetch_start;
    add_span("fetch", fetch_start, fetch_elapsed);
    if (metrics_.fetch_latency_ns != nullptr) {
      metrics_.fetch_latency_ns->observe(
          static_cast<std::uint64_t>(fetch_elapsed.count()));
    }
    if (!step.account(outcome)) continue;
    result.fingerprints.emplace_back(work.device,
                                     rcdc::fingerprint(*outcome.table));
    const auto validate_start = clock_->now();
    std::vector<rcdc::Violation> violations = step.check(
        work.device, work.contracts, outcome.table, outcome.degraded());
    add_span("validate", validate_start, clock_->now() - validate_start);
    result.violations.insert(result.violations.end(),
                             std::make_move_iterator(violations.begin()),
                             std::make_move_iterator(violations.end()));
  }
  tally.copy_to(result);

  const auto finished = clock_->now();
  result.elapsed_ns = static_cast<std::uint64_t>((finished - start).count());
  // The shard root (parent 0: the coordinator re-parents batch roots under
  // the assign span) rides past the cap so children always resolve.
  trace_events.push_back({"shard", shard_span, /*parent=*/0,
                          assignment.cycle_id, obs::thread_index(),
                          start.time_since_epoch(), finished - start});
  if (config_.trace != nullptr) {
    config_.trace->record_span("shard", shard_span, 0, assignment.cycle_id,
                               start, finished - start);
  }
  result.trace_blob = obs::serialize_trace(
      trace_events, std::chrono::nanoseconds{0}, trace_dropped);
  if (config_.metrics != nullptr) {
    result.registry_blob = obs::serialize_registry(*config_.metrics);
  }
  result.send_ns =
      static_cast<std::uint64_t>(clock_->now().time_since_epoch().count());
  result.peer_tx_ns = peer_tx_ns_;
  result.peer_rx_ns = peer_rx_ns_;
  if (!transport.send(encode(result))) return false;
  ++shards_validated_;
  return true;
}

std::chrono::nanoseconds reconnect_backoff(const ReconnectPolicy& policy,
                                           std::uint32_t attempt) {
  if (attempt <= 1) return std::chrono::nanoseconds{0};
  double backoff = static_cast<double>(policy.initial_backoff.count());
  for (std::uint32_t i = 2; i < attempt; ++i) {
    backoff *= policy.multiplier;
    if (backoff >= static_cast<double>(policy.max_backoff.count())) break;
  }
  const double capped =
      std::min(backoff, static_cast<double>(policy.max_backoff.count()));
  return std::chrono::nanoseconds{static_cast<std::int64_t>(capped)};
}

}  // namespace dcv::dist
