// rcdc_validate — validate a datacenter's forwarding state against the
// intent derived from its architecture.
//
// Reads a topology file (see topology/topology_io.hpp). Reality comes from
// either a directory of per-device routing tables in the Figure 2 text
// format (<device-name>.rt, as pulled from devices or emitted by
// dcv_topogen --tables), or from EBGP simulation over the topology's
// recorded link/session state. Prints the violation report with risk and
// triage annotations — the offline equivalent of one RCDC monitoring cycle.
//
// Three modes: a one-shot sweep (the default), a live monitoring pipeline
// (serving, bounded cycles or a trace dump), and a distributed run that
// shards the device space across dcv_worker processes.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "dist/coordinator.hpp"
#include "dist/process.hpp"
#include "dist/report.hpp"
#include "dist/transport.hpp"
#include "exec/executor.hpp"
#include "gate/gate_service.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "rcdc/beliefs_io.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/flaky_fib_source.hpp"
#include "rcdc/global_checker.hpp"
#include "rcdc/pipeline.hpp"
#include "rcdc/report_io.hpp"
#include "rcdc/resilient_fib_source.hpp"
#include "rcdc/triage.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/topology_io.hpp"

namespace {

using namespace dcv;
using Clock = std::chrono::steady_clock;

/// Everything the command line sets; the flag table in main() fills it.
struct Options {
  std::string topology_path;
  std::string tables_dir;
  std::string verifier_name = "trie";
  unsigned threads = 4;
  bool run_global = false;
  bool as_json = false;
  bool quiet = false;
  std::string beliefs_path;
  rcdc::FlakyConfig flaky;
  bool use_flaky = false;
  rcdc::ResilienceConfig resilience;
  bool use_resilience = false;
  std::string metrics_out;
  std::string metrics_format = "prom";
  Clock::duration metrics_flush{0};
  bool serve_set = false;
  std::uint16_t serve_port = 0;
  /// HTTP pool of the telemetry server (worker threads, admission queue).
  obs::TelemetryServerConfig http;
  bool cycles_given = false;
  std::uint64_t cycles = 0;
  Clock::duration cycle_interval{0};
  rcdc::PipelineConfig pipeline{.puller_workers = 8, .time_scale = 0.001};
  std::string trace_out;
  std::size_t trace_capacity = 65536;
  rcdc::ReadinessRules readiness;
  unsigned spawn_workers = 0;
  bool listen_set = false;
  std::uint16_t listen_port = 0;
  std::size_t expect_workers = 0;
  Clock::duration accept_timeout = std::chrono::seconds(30);
  dist::CoordinatorConfig coordinator;
  std::string worker_bin;
  std::uint64_t worker_fetch_latency_us = 0;
  std::vector<std::string> worker_extra_args;
  dist::FleetReadinessRules fleet_readiness;
};

std::vector<cli::Flag> flag_table(Options& o) {
  using std::chrono::milliseconds;
  using std::chrono::seconds;
  std::vector<cli::Flag> flags = {
      cli::text("--topology", "FILE", o.topology_path,
                "topology file (the expected network)")
          .require(),
      cli::text("--tables", "DIR", o.tables_dir,
                "per-device routing tables (<name>.rt); default: simulate "
                "EBGP over the topology's recorded state"),
      cli::choice("--verifier", "V", o.verifier_name, rcdc::kVerifierNames,
                  "trie (default), smt, or linear"),
      cli::count("--threads", "N", o.threads,
                 "validation workers (default 4; 0 = hardware default)"),
      cli::toggle("--global", o.run_global,
                  "also run the global all-pairs baseline"),
      cli::text("--beliefs", "FILE", o.beliefs_path,
                "also check operator beliefs (template properties)"),
      cli::toggle("--json", o.as_json,
                  "emit the report as JSON (stream-analytics feed)"),
      cli::toggle("--quiet", o.quiet, "print only the summary line"),
      cli::section("resilience (retry/backoff + per-device circuit "
                   "breaker; any of these enables the layer):"),
      cli::count("--retries", "N", o.resilience.retry.max_attempts,
                 "pull attempts per fetch")
          .marks(o.use_resilience),
      cli::duration<milliseconds>(
          "--backoff-ms", o.resilience.retry.initial_backoff,
          "initial backoff, doubled per retry (default 50)")
          .marks(o.use_resilience),
      cli::duration<milliseconds>("--deadline-ms",
                                  o.resilience.retry.fetch_deadline,
                                  "per-fetch overall budget (default 10000)")
          .marks(o.use_resilience),
      cli::count("--breaker-threshold", "N",
                 o.resilience.breaker.failure_threshold,
                 "consecutive failures to open (default 5)")
          .marks(o.use_resilience),
      cli::duration<milliseconds>("--breaker-cooldown-ms",
                                  o.resilience.breaker.cool_down,
                                  "open-state cool-down (default 30000)")
          .marks(o.use_resilience),
      cli::toggle("--no-stale", o.resilience.serve_stale,
                  "disable the stale-table cache fallback", false)
          .marks(o.use_resilience),
      cli::section("observability:"),
      cli::text("--metrics-out", "FILE", o.metrics_out,
                "dump the metrics registry after the run and print a "
                "per-stage latency table"),
      cli::choice("--metrics-format", "F", o.metrics_format,
                  cli::kMetricsFormats,
                  "prom (default; Prometheus text exposition) or json"),
      cli::duration<seconds>(
          "--metrics-flush-sec", o.metrics_flush,
          "additionally rewrite the metrics dump every N seconds (atomic "
          "rename), so a killed run still leaves fresh metrics on disk"),
      cli::section("live monitoring (continuous pipeline instead of one "
                   "offline sweep; enabled by serving, cycles, or a trace "
                   "dump):"),
      cli::count("--serve", "PORT", o.serve_port,
                 "HTTP telemetry on PORT (0 = ephemeral): /metrics "
                 "/metrics.json /healthz /readyz /tracez; runs cycles until "
                 "SIGINT/SIGTERM unless a cycle count bounds them. "
                 "Non-distributed serving also mounts the change gate: POST "
                 "/precheck (warm emulated prechecks), POST /nsg-check "
                 "(pooled SecGuru), GET /gatez")
          .marks(o.serve_set),
      cli::count("--http-workers", "N", o.http.worker_threads,
                 "HTTP handler threads (default 4)"),
      cli::count("--http-queue", "N", o.http.max_queued_requests,
                 "request admission queue; beyond it requests are answered "
                 "429 (default 32)"),
      cli::count("--cycles", "N", o.cycles,
                 "run N monitoring cycles (0 = until signal; default 1 "
                 "without serving)")
          .marks(o.cycles_given),
      cli::duration<milliseconds>("--interval-ms", o.cycle_interval,
                                  "pause between cycles (default 0)"),
      cli::count("--pullers", "N", o.pipeline.puller_workers,
                 "pipeline fetch workers (default 8)"),
      cli::count("--validators", "N", o.pipeline.validator_workers,
                 "pipeline validation workers (default 4)"),
      cli::count("--queue-capacity", "N", o.pipeline.queue_capacity,
                 "puller->validator queue bound (default 256)"),
      cli::toggle("--no-incremental", o.pipeline.incremental,
                  "re-verify every device every cycle instead of skipping "
                  "devices whose table fingerprint is unchanged "
                  "(incremental is the default)",
                  false),
      cli::real("--time-scale", "X", o.pipeline.time_scale,
                "compress the simulated 200-800ms fetch latencies by X "
                "(default 0.001)"),
      cli::count("--seed", "N", o.pipeline.seed,
                 "fetch-latency schedule seed (default 0)"),
      cli::text("--trace-out", "FILE", o.trace_out,
                "write the span ring as Chrome trace-event JSON at exit "
                "(open in Perfetto); in distributed mode, the merged fleet "
                "timeline with one named track per process"),
      cli::count("--trace-capacity", "N", o.trace_capacity,
                 "span ring capacity (default 65536)"),
      cli::section("readiness rules (what /readyz enforces):"),
      cli::real("--ready-coverage", "T", o.readiness.min_coverage,
                "minimum per-cycle device coverage (default 0.9)"),
      cli::count("--ready-max-breaker-opens", "N",
                 o.readiness.max_breaker_opens,
                 "tolerated opens per cycle (default 0)"),
      cli::duration<seconds>("--ready-max-age-sec", o.readiness.max_cycle_age,
                             "503 when the last cycle is older than N "
                             "seconds (default 0 = disabled)"),
      cli::real("--ready-max-queue-saturation", "T",
                o.readiness.max_queue_saturation,
                "503 when a work queue (pipeline or HTTP admission) sits "
                "above T (default 0.9)"),
      cli::section("distributed validation (coordinator/worker fleet; "
                   "enabled by spawning or listening for workers; combines "
                   "with cycles, serving and JSON):"),
      cli::count("--workers", "N", o.spawn_workers,
                 "spawn N local dcv_worker processes and shard the device "
                 "space across them"),
      cli::count("--listen", "PORT", o.listen_port,
                 "also/instead accept external dcv_worker connections on "
                 "127.0.0.1:PORT (0 = ephemeral)")
          .marks(o.listen_set),
      cli::count("--expect-workers", "N", o.expect_workers,
                 "wait for N workers before the first cycle (default: the "
                 "spawned count)"),
      cli::duration<seconds>("--accept-timeout-sec", o.accept_timeout,
                             "admission wait bound (default 30)"),
      cli::duration<milliseconds>(
          "--lease-ms", o.coordinator.lease,
          "shard lease; a worker silent this long is declared lost and "
          "its shard reassigned (default 5000)"),
      cli::duration<milliseconds>(
          "--heartbeat-ms", o.coordinator.heartbeat_interval,
          "heartbeat cadence advertised to workers (default 1000)"),
      cli::count("--shard-retry", "N", o.coordinator.shard_retry_budget,
                 "extra deliveries per lost shard before it is marked "
                 "failed (default 2); exhausting the budget completes the "
                 "run degraded (exit 4, coverage < 1) instead of hanging"),
      cli::count("--shards-per-worker", "N", o.coordinator.shards_per_worker,
                 "shards carved per worker (default 4)"),
      cli::text("--worker-bin", "PATH", o.worker_bin,
                "dcv_worker binary (default: next to this binary)"),
      cli::count("--worker-fetch-latency-us", "N", o.worker_fetch_latency_us,
                 "simulated per-device pull latency passed to spawned "
                 "workers (default 0)"),
      cli::list("--worker-arg", "ARG", o.worker_extra_args,
                "extra flag passed through to every spawned worker "
                "(repeatable)"),
      cli::count("--ready-min-workers", "N", o.fleet_readiness.min_workers,
                 "/readyz fails below N live workers (default 1)"),
  };
  for (cli::Flag& flag : cli::flaky_flags(o.flaky, o.use_flaky)) {
    flags.push_back(std::move(flag));
  }
  return flags;
}

/// Per-stage latency summary from every histogram that saw samples, ns
/// rendered as ms. The "stages" are exactly the instrumented subsystems:
/// fetch, validate, fingerprint, verifier engines, queue waits.
void print_latency_table(const obs::MetricsRegistry& registry) {
  std::printf("\nper-stage latency (ms unless noted):\n");
  std::printf("  %-38s %9s %9s %9s %9s %9s %11s\n", "stage", "count", "p50",
              "p90", "p99", "max", "total");
  const double kMs = 1e6;
  for (const auto& metric : registry.collect()) {
    if (metric.type != obs::MetricType::kHistogram) continue;
    const obs::Histogram& h = *metric.histogram;
    if (h.count() == 0) continue;
    std::string name = metric.name;
    for (const auto& [key, val] : metric.labels) {
      name += "{" + key + "=" + val + "}";
    }
    // Dimensionless histograms (attempt/round/rule counts) print raw.
    const bool is_ns = metric.name.find("_ns") != std::string::npos;
    const double scale = is_ns ? kMs : 1.0;
    std::printf("  %-38s %9llu %9.3f %9.3f %9.3f %9.3f %11.3f%s\n",
                name.c_str(),
                static_cast<unsigned long long>(h.count()),
                h.quantile(0.5) / scale, h.quantile(0.9) / scale,
                h.quantile(0.99) / scale,
                static_cast<double>(h.max()) / scale,
                static_cast<double>(h.sum()) / scale, is_ns ? "" : " (n)");
  }
}

/// Stops the periodic `flusher`, so no older snapshot can land after this
/// one, prints the per-stage latency table when `table`, then writes the
/// final metrics dump; false when the write failed.
bool dump_metrics(const Options& o, const obs::MetricsRegistry& registry,
                  bool table, std::jthread& flusher) {
  if (flusher.joinable()) {
    flusher.request_stop();
    flusher.join();
  }
  if (table) print_latency_table(registry);
  return cli::write_metrics(registry, o.metrics_out, o.metrics_format);
}

/// The span ring of a live run, kept only when something reads it: the
/// server's /tracez or the trace dump.
std::unique_ptr<obs::TraceRing> make_trace(const Options& o,
                                           obs::MetricsRegistry& registry) {
  if (!o.serve_set && o.trace_out.empty()) return nullptr;
  auto trace = std::make_unique<obs::TraceRing>(o.trace_capacity);
  trace->attach_metrics(registry);
  return trace;
}

/// Starts the telemetry server on the serve port. Its banner goes to
/// stderr: in JSON mode stdout is the report and must stay parseable.
std::unique_ptr<obs::TelemetryServer> serve(
    const Options& o, const obs::MetricsRegistry& registry,
    const obs::TraceRing* trace, obs::HealthProbe probe,
    obs::TelemetryServerConfig config) {
  config.port = o.serve_port;
  auto server = std::make_unique<obs::TelemetryServer>(
      &registry, trace, std::move(probe), std::move(config));
  std::cerr << "telemetry: /metrics /metrics.json /healthz /readyz "
               "/tracez on port "
            << server->port() << "\n";
  return server;
}

/// Whether another cycle follows cycle `c` (0-based).
bool more_cycles(const Options& o, std::uint64_t c) {
  return o.cycles == 0 || c + 1 < o.cycles;
}

/// Distributed mode: shard the device space across dcv_worker processes.
int run_distributed(Options o, const std::string& program,
                    const topo::Topology& topology,
                    const topo::MetadataService& metadata,
                    obs::MetricsRegistry& registry, std::jthread& flusher) {
  // Coordinator role: SIGPIPE must surface as transport errors, and
  // SIGCHLD marks exited workers for reaping between cycles.
  dist::install_fleet_signal_handlers();
  cli::install_stop_handlers();

  dist::TcpListener listener(o.listen_set ? o.listen_port : 0);
  if (!o.quiet || o.listen_set) {
    // JSON mode keeps stdout machine-readable: the report only.
    std::ostream& log = o.as_json ? std::cerr : std::cout;
    log << "coordinator: accepting workers on 127.0.0.1:" << listener.port()
        << "\n";
    log.flush();
  }

  dist::WorkerFleet fleet(&registry);
  if (o.worker_bin.empty()) {
    o.worker_bin =
        (std::filesystem::path(program).parent_path() / "dcv_worker").string();
  }
  for (unsigned w = 0; w < o.spawn_workers; ++w) {
    std::vector<std::string> args = {
        o.worker_bin,
        "--connect",
        "127.0.0.1:" + std::to_string(listener.port()),
        "--topology",
        o.topology_path,
        "--worker-id",
        "w" + std::to_string(w),
        "--verifier",
        o.verifier_name,
        "--quiet",
    };
    if (!o.tables_dir.empty()) {
      args.push_back("--tables");
      args.push_back(o.tables_dir);
    }
    if (o.worker_fetch_latency_us > 0) {
      args.push_back("--fetch-latency-us");
      args.push_back(std::to_string(o.worker_fetch_latency_us));
    }
    args.insert(args.end(), o.worker_extra_args.begin(),
                o.worker_extra_args.end());
    if (fleet.spawn(args) < 0) {
      throw std::runtime_error("cannot spawn " + o.worker_bin);
    }
  }
  const std::size_t expect =
      o.expect_workers > 0 ? o.expect_workers : o.spawn_workers;

  // The coordinator's trace ring anchors the merged fleet timeline: its
  // own assign/cycle spans land here, worker trees are rebased onto its
  // epoch.
  const std::unique_ptr<obs::TraceRing> fleet_trace = make_trace(o, registry);
  o.coordinator.metrics = &registry;
  o.coordinator.trace = fleet_trace.get();
  dist::Coordinator coordinator(metadata, o.coordinator);

  std::unique_ptr<obs::TelemetryServer> server;
  if (o.serve_set) {
    obs::TelemetryServerConfig server_config = o.http;
    // /tracez serves the merged fleet timeline (coordinator + every
    // worker's re-parented spans), not just the local ring.
    server_config.trace_renderer = [&coordinator](std::size_t max_spans) {
      return obs::write_trace_json(coordinator.merger().snapshot(),
                                   max_spans);
    };
    o.fleet_readiness.min_coverage = o.readiness.min_coverage;
    server = serve(o, registry, fleet_trace.get(),
                   dist::make_fleet_probe(coordinator, o.fleet_readiness),
                   std::move(server_config));
  }

  // Admission: accept + handshake until the expected fleet is live.
  const auto accept_deadline = Clock::now() + o.accept_timeout;
  while (coordinator.live_workers() < expect && !cli::stop_requested() &&
         Clock::now() < accept_deadline) {
    auto transport = listener.accept(std::chrono::milliseconds(50));
    if (transport != nullptr) coordinator.add_worker(std::move(transport));
    coordinator.pump(expect, std::chrono::milliseconds(10));
    fleet.reap();
  }
  if (coordinator.live_workers() == 0) {
    const auto waited =
        std::chrono::duration_cast<std::chrono::seconds>(o.accept_timeout);
    throw std::runtime_error("no workers joined within " +
                             std::to_string(waited.count()) + " s");
  }
  // Re-admits a reconnecting worker between cycles.
  const auto readmit = [&] {
    auto transport = listener.accept(std::chrono::milliseconds(0));
    if (transport != nullptr) {
      coordinator.add_worker(std::move(transport));
      coordinator.pump(expect, std::chrono::milliseconds(20));
    }
  };

  bool any_degraded = false;
  std::size_t total_violations = 0;
  std::uint64_t completed = 0;
  std::string last_report;
  for (std::uint64_t c = 0;
       (o.cycles == 0 || c < o.cycles) && !cli::stop_requested(); ++c) {
    dist::DistributedSummary summary = coordinator.run_cycle();
    ++completed;
    any_degraded = any_degraded || summary.degraded();
    total_violations += summary.merged.violations.size();
    for (const dist::WorkerExit& exit : fleet.reap()) {
      if (!o.quiet) {
        std::cerr << "worker pid " << exit.pid << " exited (" << exit.reason
                  << " " << exit.code << ")\n";
      }
    }
    std::size_t shards_ok = 0;
    for (const dist::ShardOutcome& shard : summary.shards) {
      if (shard.status != dist::ShardStatus::kFailed) ++shards_ok;
    }
    if (!o.quiet) {
      std::fprintf(
          o.as_json ? stderr : stdout,
          "cycle %llu: coverage %.1f%%, %zu violations, %zu/%zu shards "
          "validated, %zu reassignments, %zu workers live%s\n",
          static_cast<unsigned long long>(completed),
          100.0 * summary.coverage(), summary.merged.violations.size(),
          shards_ok, summary.shards.size(), summary.reassignments,
          coordinator.live_workers(),
          summary.degraded() ? " [DEGRADED]" : "");
      std::fflush(o.as_json ? stderr : stdout);
    }
    if (o.as_json) {
      last_report = dist::write_distributed_report_json(summary, topology);
    }
    cli::pause_for(more_cycles(o, c) ? o.cycle_interval : Clock::duration{},
                   readmit);
  }

  coordinator.shutdown_workers();
  for (int i = 0; i < 40 && fleet.alive() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    fleet.reap();
  }
  if (server != nullptr) server->stop();
  if (o.as_json) std::cout << last_report;
  if (!o.metrics_out.empty() &&
      !dump_metrics(o, registry, !o.quiet && !o.as_json, flusher)) {
    return 1;
  }
  if (!o.trace_out.empty()) {
    // One Perfetto-loadable file: coordinator track + one named track per
    // worker, offset-aligned onto the coordinator clock.
    const obs::MergedTrace merged = coordinator.merger().snapshot();
    if (cli::write_file_atomic(o.trace_out, obs::write_chrome_trace(merged)) &&
        !o.quiet && !o.as_json) {
      std::size_t spans = 0;
      for (const obs::MergedTrack& track : merged.tracks) {
        spans += track.events.size();
      }
      std::cout << "fleet trace: " << spans << " spans across "
                << merged.tracks.size() << " processes written to "
                << o.trace_out << "\n";
    }
  }
  if (!o.as_json) {
    std::cout << "rcdc_validate: " << completed << " distributed cycles, "
              << total_violations << " violations"
              << (any_degraded ? " (degraded: lost shards exhausted "
                                 "their retry budget)"
                               : "")
              << (cli::stop_requested() ? " (stopped by signal)" : "")
              << "\n";
  }
  // Exit codes: degraded completion is distinct from both success and
  // ordinary violations so CI and operators can tell them apart.
  if (any_degraded) return 4;
  return total_violations == 0 ? 0 : 3;
}

/// Pipeline mode: continuous monitoring cycles, optionally serving
/// telemetry and the change gate.
int run_pipeline(Options o, const topo::Topology& topology,
                 const topo::MetadataService& metadata,
                 obs::MetricsRegistry& registry, const rcdc::FibSource& fibs,
                 const rcdc::VerifierFactory& factory, std::jthread& flusher) {
  const std::unique_ptr<obs::TraceRing> trace = make_trace(o, registry);
  o.pipeline.metrics = &registry;
  o.pipeline.trace = trace.get();
  rcdc::MonitoringPipeline pipeline(metadata, fibs, factory, o.pipeline);

  std::unique_ptr<gate::GateService> gate_service;
  std::unique_ptr<obs::TelemetryServer> server;
  if (o.serve_set) {
    // The change gate rides on the telemetry server: one warm precheck
    // session + NSG engine pool, serving POST /precheck and
    // POST /nsg-check next to the scrape endpoints.
    gate::GateConfig gate_config;
    gate_config.metrics = &registry;
    gate_service = std::make_unique<gate::GateService>(topology, gate_config);
    o.http.http_metrics = &registry;
    o.http.mount = [&gate_service](obs::HttpServer& http) {
      gate_service->attach(http);
    };
    server = serve(o, registry, trace.get(),
                   gate_service->wrap_probe(
                       rcdc::make_pipeline_probe(pipeline, o.readiness),
                       o.readiness.max_queue_saturation),
                   o.http);
    std::cerr << "gate: POST /precheck, POST /nsg-check, GET /gatez "
                 "(base epoch "
              << gate_service->session().base_epoch() << ")\n";
  }
  cli::install_stop_handlers();

  std::size_t total_violations = 0;
  std::uint64_t completed = 0;
  for (std::uint64_t c = 0;
       (o.cycles == 0 || c < o.cycles) && !cli::stop_requested(); ++c) {
    const auto stats = pipeline.run_cycle();
    ++completed;
    total_violations += stats.violations;
    if (!o.quiet) {
      std::printf(
          "cycle %llu: %zu devices (%zu revalidated, %zu cached), "
          "coverage %.1f%%, %zu violations (%zu high), wall %.3f s\n",
          static_cast<unsigned long long>(completed), stats.devices,
          stats.devices_revalidated, stats.devices_skipped,
          100.0 * stats.coverage(), stats.violations, stats.alerts_high,
          std::chrono::duration<double>(stats.wall).count());
      std::fflush(stdout);
    }
    if (more_cycles(o, c)) cli::pause_for(o.cycle_interval);
  }

  if (server != nullptr) server->stop();
  if (trace != nullptr && !o.trace_out.empty()) {
    if (!cli::write_file_atomic(o.trace_out,
                                obs::write_chrome_trace(*trace))) {
      return 1;
    }
    std::cout << "trace: " << trace->size() << " spans (" << trace->dropped()
              << " dropped) written to " << o.trace_out
              << " (Chrome trace-event JSON; open in Perfetto)\n";
  }
  if (!o.metrics_out.empty()) {
    if (!dump_metrics(o, registry, !o.quiet, flusher)) return 1;
    std::cout << "metrics: " << o.metrics_format << " dump written to "
              << o.metrics_out << "\n";
  }
  std::cout << "rcdc_validate: " << completed << " monitoring cycles, "
            << total_violations << " violations"
            << (cli::stop_requested() ? " (stopped by signal)" : "") << "\n";
  return total_violations == 0 ? 0 : 3;
}

/// One-shot sweep: validate every device once and print the report.
/// `fibs` is the plain table source (beliefs and the global baseline read
/// it directly), `active` the same behind any fetch-layer decorators.
int run_sweep(const Options& o, const topo::Topology& topology,
              const topo::MetadataService& metadata,
              obs::MetricsRegistry& registry, obs::MetricsRegistry* metrics,
              const rcdc::FibSource& fibs, const rcdc::FibSource& active,
              const rcdc::VerifierFactory& factory, std::jthread& flusher) {
  const rcdc::DatacenterValidator validator(metadata, active, factory, {},
                                            metrics);
  const unsigned threads = exec::default_threads(o.threads);
  const auto summary = validator.run(threads);

  if (o.as_json) {
    std::cout << rcdc::write_report_json(summary, topology);
    if (metrics != nullptr && !dump_metrics(o, registry, false, flusher)) {
      return 1;
    }
    return summary.violations.empty() ? 0 : 3;
  }

  if (!o.quiet) {
    const rcdc::RiskPolicy risk(topology);
    const rcdc::TriageEngine triage(topology);
    for (const rcdc::Violation& v : summary.violations) {
      const auto assessment = risk.assess(v);
      const auto decision = triage.triage(v);
      std::cout << topology.device(v.device).name << " "
                << (v.contract.kind == rcdc::ContractKind::kDefault
                        ? "default"
                        : v.contract.prefix.to_string())
                << " " << to_string(v.kind)
                << " risk=" << to_string(assessment.level)
                << " action=" << to_string(decision.action) << "\n";
    }
  }
  std::cout << "rcdc_validate: " << summary.devices_checked << " devices, "
            << summary.contracts_checked << " contracts, "
            << summary.violations.size() << " violations in "
            << std::chrono::duration<double>(summary.elapsed).count()
            << " s (" << o.verifier_name << ", " << threads << " threads)\n";
  if (o.use_flaky || o.use_resilience || summary.devices_failed > 0) {
    std::cout << "fetch layer: coverage " << 100.0 * summary.coverage()
              << "% (" << summary.devices_failed << " failed, "
              << summary.devices_stale << " stale, " << summary.retries
              << " retries, " << summary.breaker_opens << " breaker-opens, "
              << summary.violations_degraded
              << " degraded-confidence violations)\n";
  }
  if (metrics != nullptr) {
    if (!dump_metrics(o, registry, !o.quiet, flusher)) return 1;
    std::cout << "metrics: " << o.metrics_format << " dump written to "
              << o.metrics_out << "\n";
  }

  bool beliefs_ok = true;
  if (!o.beliefs_path.empty()) {
    const auto beliefs =
        rcdc::parse_beliefs(cli::read_file(o.beliefs_path), topology);
    const rcdc::BeliefChecker checker(metadata, fibs);
    std::size_t held = 0;
    for (const rcdc::BeliefResult& result : checker.check_all(beliefs)) {
      if (result.holds) {
        ++held;
      } else {
        beliefs_ok = false;
      }
      if (!o.quiet || !result.holds) {
        std::cout << (result.holds ? "HOLDS " : "BROKEN ")
                  << result.belief.to_string(topology) << "  ("
                  << result.observed << ")\n";
      }
    }
    std::cout << "beliefs: " << held << "/" << beliefs.size() << " hold\n";
  }

  if (o.run_global) {
    const rcdc::GlobalChecker checker(metadata, fibs);
    const auto result = checker.check_all_pairs(/*max_failures=*/20);
    std::cout << "global baseline: " << result.pairs_checked << " pairs, "
              << result.pairs_fully_redundant << " fully redundant, snapshot "
              << std::chrono::duration<double>(result.snapshot_time).count()
              << " s, analysis "
              << std::chrono::duration<double>(result.analysis_time).count()
              << " s\n";
    if (!o.quiet) {
      for (const std::string& failure : result.failures) {
        std::cout << "  global: " << failure << "\n";
      }
    }
  }
  return summary.violations.empty() && beliefs_ok ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  const std::string program =
      cli::parse("rcdc_validate", flag_table(o), argc, argv);
  if (o.listen_set && o.spawn_workers == 0 && o.expect_workers == 0) {
    cli::usage_error(
        "listening for external workers needs an expected worker count");
  }

  // Distributed mode shards the device space across worker processes. Any
  // serve/cycles/trace request otherwise turns the offline sweep into a
  // continuously running MonitoringPipeline.
  const bool distributed = o.spawn_workers > 0 || o.listen_set;
  const bool pipeline_mode =
      !distributed && (o.serve_set || o.cycles_given || !o.trace_out.empty());
  if ((pipeline_mode || distributed) && !o.cycles_given && !o.serve_set) {
    o.cycles = 1;
  }

  return cli::run([&] {
    obs::MetricsRegistry registry;

    // Periodic atomic-rename flush: a killed run still leaves a complete,
    // recent exposition on disk for the scraper/artifact step.
    std::jthread metrics_flusher;
    if (o.metrics_flush > Clock::duration::zero() && !o.metrics_out.empty()) {
      metrics_flusher = std::jthread([&registry, &o](std::stop_token stop) {
        auto next_flush = Clock::now() + o.metrics_flush;
        while (!stop.stop_requested()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          if (Clock::now() < next_flush) continue;
          cli::write_metrics(registry, o.metrics_out, o.metrics_format);
          next_flush = Clock::now() + o.metrics_flush;
        }
      });
    }

    const topo::Topology topology =
        topo::parse_topology(cli::read_file(o.topology_path));
    const topo::MetadataService metadata(topology);
    if (distributed) {
      return run_distributed(o, program, topology, metadata, registry,
                             metrics_flusher);
    }

    obs::MetricsRegistry* metrics =
        pipeline_mode || !o.metrics_out.empty() ? &registry : nullptr;
    std::unique_ptr<routing::BgpSimulator> simulator;
    std::unique_ptr<rcdc::FibSource> fibs;
    if (o.tables_dir.empty()) {
      simulator =
          std::make_unique<routing::BgpSimulator>(topology, nullptr, metrics);
      fibs = std::make_unique<rcdc::SimulatorFibSource>(*simulator);
    } else {
      fibs = std::make_unique<rcdc::TableDirFibSource>(o.tables_dir, topology);
    }

    // Optional fetch-layer decorators: failure injection under the
    // resilience layer, so retries/breakers see the injected flakiness.
    std::unique_ptr<rcdc::FlakyFibSource> flaky_source;
    std::unique_ptr<rcdc::ResilientFibSource> resilient_source;
    const rcdc::FibSource* active = fibs.get();
    if (o.use_flaky) {
      flaky_source = std::make_unique<rcdc::FlakyFibSource>(*active, o.flaky);
      active = flaky_source.get();
    }
    if (o.use_resilience) {
      o.resilience.metrics = metrics;
      resilient_source =
          std::make_unique<rcdc::ResilientFibSource>(*active, o.resilience);
      active = resilient_source.get();
    }

    const rcdc::VerifierFactory factory =
        rcdc::make_verifier_factory(o.verifier_name, metrics);
    if (pipeline_mode) {
      return run_pipeline(o, topology, metadata, registry, *active, factory,
                          metrics_flusher);
    }
    return run_sweep(o, topology, metadata, registry, metrics, *fibs,
                     *active, factory, metrics_flusher);
  });
}
