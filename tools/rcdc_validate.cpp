// rcdc_validate — validate a datacenter's forwarding state against the
// intent derived from its architecture.
//
// Reads a topology file (see topology/topology_io.hpp). Reality comes from
// either a directory of per-device routing tables in the Figure 2 text
// format (<device-name>.rt, as pulled from devices or emitted by
// dcv_topogen --tables), or from EBGP simulation over the topology's
// recorded link/session state. Prints the violation report with risk and
// triage annotations — the offline equivalent of one RCDC monitoring cycle.
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.hpp"
#include "gate/gate_service.hpp"
#include "dist/process.hpp"
#include "dist/report.hpp"
#include "dist/transport.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "rcdc/beliefs_io.hpp"
#include "rcdc/pipeline.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/flaky_fib_source.hpp"
#include "rcdc/global_checker.hpp"
#include "rcdc/resilient_fib_source.hpp"
#include "rcdc/report_io.hpp"
#include "rcdc/triage.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/topology_io.hpp"

namespace {

using namespace dcv;

void usage() {
  std::cerr <<
      "usage: rcdc_validate --topology FILE [options]\n"
      "  --tables DIR     per-device routing tables (<name>.rt); default:\n"
      "                   simulate EBGP over the topology's recorded state\n"
      "  --verifier V     trie (default) or smt\n"
      "  --threads N      validation workers (default 4)\n"
      "  --global         also run the global all-pairs baseline\n"
      "  --beliefs FILE   also check operator beliefs (template properties)\n"
      "  --json           emit the report as JSON (stream-analytics feed)\n"
      "  --quiet          print only the summary line\n"
      "fault-injection (flaky fetch layer; per-attempt probabilities):\n"
      "  --flaky-timeout R --flaky-transient R --flaky-truncate R\n"
      "  --flaky-corrupt R --flaky-unreachable R   rates in [0,1]\n"
      "  --flaky-seed N   failure-schedule seed (default 0)\n"
      "resilience (retry/backoff + per-device circuit breaker):\n"
      "  --retries N          pull attempts per fetch (enables the layer)\n"
      "  --backoff-ms N       initial backoff, doubled per retry (def 50)\n"
      "  --deadline-ms N      per-fetch overall budget (default 10000)\n"
      "  --breaker-threshold N  consecutive failures to open (default 5)\n"
      "  --breaker-cooldown-ms N  open-state cool-down (default 30000)\n"
      "  --no-stale           disable the stale-table cache fallback\n"
      "observability:\n"
      "  --metrics-out FILE   dump the metrics registry after the run and\n"
      "                       print a per-stage latency table\n"
      "  --metrics-format F   prom (default; Prometheus text exposition)\n"
      "                       or json\n"
      "  --metrics-flush-sec N  additionally rewrite --metrics-out every N\n"
      "                       seconds (atomic rename), so a killed run\n"
      "                       still leaves fresh metrics on disk\n"
      "live monitoring (continuous pipeline instead of one offline sweep;\n"
      "enabled by --serve, --cycles, or --trace-out):\n"
      "  --serve PORT         HTTP telemetry on PORT (0 = ephemeral):\n"
      "                       /metrics /metrics.json /healthz /readyz\n"
      "                       /tracez; runs cycles until SIGINT/SIGTERM\n"
      "                       unless --cycles bounds them. Non-distributed\n"
      "                       serving also mounts the change gate:\n"
      "                       POST /precheck (warm emulated prechecks,\n"
      "                       coalesced into batches), POST /nsg-check\n"
      "                       (pooled SecGuru), GET /gatez\n"
      "  --http-workers N     HTTP handler threads (default 4)\n"
      "  --http-queue N       request admission queue; beyond it requests\n"
      "                       are answered 429 (default 32)\n"
      "  --cycles N           run N monitoring cycles (0 = until signal;\n"
      "                       default 1 without --serve)\n"
      "  --interval-ms N      pause between cycles (default 0)\n"
      "  --pullers N / --validators N   pipeline workers (default 8 / 4)\n"
      "  --queue-capacity N   puller->validator queue bound (default 256)\n"
      "  --no-incremental     re-verify every device every cycle instead\n"
      "                       of skipping devices whose table fingerprint\n"
      "                       is unchanged (incremental is the default)\n"
      "  --time-scale X       compress the simulated 200-800ms fetch\n"
      "                       latencies by X (default 0.001)\n"
      "  --seed N             fetch-latency schedule seed (default 0)\n"
      "  --trace-out FILE     write the span ring as Chrome trace-event\n"
      "                       JSON at exit (open in Perfetto); in\n"
      "                       distributed mode, the merged fleet timeline\n"
      "                       with one named track per process\n"
      "  --trace-capacity N   span ring capacity (default 65536)\n"
      "readiness rules (what /readyz enforces):\n"
      "  --ready-coverage T   minimum per-cycle device coverage (def 0.9)\n"
      "  --ready-max-breaker-opens N  tolerated opens per cycle (def 0)\n"
      "  --ready-max-age-sec N  503 when the last cycle is older than N\n"
      "                       seconds (default 0 = disabled)\n"
      "  --ready-max-queue-saturation T  503 when a work queue (pipeline\n"
      "                       or HTTP admission) sits above T (def 0.9)\n"
      "distributed validation (coordinator/worker fleet; enabled by\n"
      "--workers or --listen; combines with --cycles/--serve/--json):\n"
      "  --workers N          spawn N local dcv_worker processes and shard\n"
      "                       the device space across them\n"
      "  --listen PORT        also/instead accept external dcv_worker\n"
      "                       connections on 127.0.0.1:PORT (0=ephemeral)\n"
      "  --expect-workers N   wait for N workers before the first cycle\n"
      "                       (default: the --workers count)\n"
      "  --accept-timeout-sec N  admission wait bound (default 30)\n"
      "  --lease-ms N         shard lease; a worker silent this long is\n"
      "                       declared lost and its shard reassigned\n"
      "                       (default 5000)\n"
      "  --heartbeat-ms N     heartbeat cadence advertised to workers\n"
      "                       (default 1000)\n"
      "  --shard-retry N      extra deliveries per lost shard before it is\n"
      "                       marked failed (default 2); exhausting the\n"
      "                       budget completes the run degraded (exit 4,\n"
      "                       coverage < 1) instead of hanging\n"
      "  --shards-per-worker N  shards carved per worker (default 4)\n"
      "  --worker-bin PATH    dcv_worker binary (default: next to this\n"
      "                       binary)\n"
      "  --worker-fetch-latency-us N  simulated per-device pull latency\n"
      "                       passed to spawned workers (default 0)\n"
      "  --worker-arg ARG     extra flag passed through to every spawned\n"
      "                       worker (repeatable)\n"
      "  --ready-min-workers N  /readyz fails below N live workers (def 1)\n";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "rcdc_validate: cannot read " << path << "\n";
    std::exit(1);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
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

/// Writes `content` to `path` via a temp file + rename, so readers (and a
/// process killed mid-write) only ever see a complete old or new file.
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    out << content;
    if (!out.good()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

[[nodiscard]] std::string render_metrics(const obs::MetricsRegistry& registry,
                                         const std::string& format) {
  return format == "json" ? obs::write_json(registry)
                          : obs::write_prometheus(registry);
}

/// Writes the registry dump; exits the process on I/O failure so a CI
/// artifact step never silently uploads a half-written exposition.
void write_metrics_file(const obs::MetricsRegistry& registry,
                        const std::string& path, const std::string& format) {
  if (!write_file_atomic(path, render_metrics(registry, format))) {
    std::cerr << "rcdc_validate: cannot write " << path << "\n";
    std::exit(1);
  }
}

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
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
  std::uint64_t metrics_flush_sec = 0;
  bool serve_set = false;
  std::uint16_t serve_port = 0;
  unsigned http_workers = 4;
  std::size_t http_queue = 32;
  bool cycles_given = false;
  std::uint64_t cycles = 0;
  std::chrono::milliseconds cycle_interval{0};
  unsigned pullers = 8;
  unsigned validators = 4;
  std::size_t queue_capacity = 256;
  double time_scale = 0.001;
  std::uint64_t pipeline_seed = 0;
  bool incremental = true;
  std::string trace_out;
  std::size_t trace_capacity = 65536;
  rcdc::ReadinessRules readiness;
  unsigned spawn_workers = 0;
  bool listen_set = false;
  std::uint16_t listen_port = 0;
  std::size_t expect_workers = 0;
  std::chrono::milliseconds dist_lease{5000};
  std::chrono::milliseconds dist_heartbeat{1000};
  std::uint32_t shard_retry = 2;
  std::uint32_t shards_per_worker = 4;
  std::chrono::seconds accept_timeout{30};
  std::string worker_bin;
  std::uint64_t worker_fetch_latency_us = 0;
  std::vector<std::string> worker_extra_args;
  dist::FleetReadinessRules fleet_readiness;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "rcdc_validate: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto rate_value = [&] {
      use_flaky = true;
      const auto text = value();
      double rate = 0.0;
      const auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), rate);
      if (ec != std::errc{} || ptr != text.data() + text.size() ||
          rate < 0.0 || rate > 1.0) {
        std::cerr << "rcdc_validate: " << flag << " wants a rate in [0,1], got '"
                  << text << "'\n";
        std::exit(2);
      }
      return rate;
    };
    const auto count_value = [&]() -> std::uint64_t {
      const auto text = value();
      std::uint64_t n = 0;
      const auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), n);
      if (ec != std::errc{} || ptr != text.data() + text.size()) {
        std::cerr << "rcdc_validate: " << flag
                  << " wants a non-negative integer, got '" << text << "'\n";
        std::exit(2);
      }
      return n;
    };
    const auto ms_value = [&] {
      use_resilience = true;
      return std::chrono::milliseconds(count_value());
    };
    const auto double_value = [&] {
      const auto text = value();
      double parsed = 0.0;
      const auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), parsed);
      if (ec != std::errc{} || ptr != text.data() + text.size() ||
          parsed < 0.0) {
        std::cerr << "rcdc_validate: " << flag
                  << " wants a non-negative number, got '" << text << "'\n";
        std::exit(2);
      }
      return parsed;
    };
    if (flag == "--topology") {
      topology_path = value();
    } else if (flag == "--tables") {
      tables_dir = value();
    } else if (flag == "--verifier") {
      verifier_name = value();
    } else if (flag == "--threads") {
      const auto text = value();
      std::from_chars(text.data(), text.data() + text.size(), threads);
    } else if (flag == "--global") {
      run_global = true;
    } else if (flag == "--json") {
      as_json = true;
    } else if (flag == "--beliefs") {
      beliefs_path = value();
    } else if (flag == "--flaky-timeout") {
      flaky.timeout_rate = rate_value();
    } else if (flag == "--flaky-transient") {
      flaky.transient_rate = rate_value();
    } else if (flag == "--flaky-truncate") {
      flaky.truncate_rate = rate_value();
    } else if (flag == "--flaky-corrupt") {
      flaky.corrupt_rate = rate_value();
    } else if (flag == "--flaky-unreachable") {
      flaky.unreachable_rate = rate_value();
    } else if (flag == "--flaky-seed") {
      flaky.seed = count_value();
    } else if (flag == "--retries") {
      use_resilience = true;
      resilience.retry.max_attempts = static_cast<unsigned>(count_value());
    } else if (flag == "--backoff-ms") {
      resilience.retry.initial_backoff = ms_value();
    } else if (flag == "--deadline-ms") {
      resilience.retry.fetch_deadline = ms_value();
    } else if (flag == "--breaker-threshold") {
      use_resilience = true;
      resilience.breaker.failure_threshold =
          static_cast<unsigned>(count_value());
    } else if (flag == "--breaker-cooldown-ms") {
      resilience.breaker.cool_down = ms_value();
    } else if (flag == "--no-stale") {
      use_resilience = true;
      resilience.serve_stale = false;
    } else if (flag == "--metrics-out") {
      metrics_out = value();
    } else if (flag == "--metrics-flush-sec") {
      metrics_flush_sec = count_value();
    } else if (flag == "--serve") {
      serve_set = true;
      serve_port = static_cast<std::uint16_t>(count_value());
    } else if (flag == "--http-workers") {
      http_workers = static_cast<unsigned>(count_value());
    } else if (flag == "--http-queue") {
      http_queue = count_value();
    } else if (flag == "--cycles") {
      cycles_given = true;
      cycles = count_value();
    } else if (flag == "--interval-ms") {
      cycle_interval = std::chrono::milliseconds(count_value());
    } else if (flag == "--pullers") {
      pullers = static_cast<unsigned>(count_value());
    } else if (flag == "--validators") {
      validators = static_cast<unsigned>(count_value());
    } else if (flag == "--queue-capacity") {
      queue_capacity = count_value();
    } else if (flag == "--no-incremental") {
      incremental = false;
    } else if (flag == "--time-scale") {
      time_scale = double_value();
    } else if (flag == "--seed") {
      pipeline_seed = count_value();
    } else if (flag == "--trace-out") {
      trace_out = value();
    } else if (flag == "--trace-capacity") {
      trace_capacity = count_value();
    } else if (flag == "--workers") {
      spawn_workers = static_cast<unsigned>(count_value());
    } else if (flag == "--listen") {
      listen_set = true;
      listen_port = static_cast<std::uint16_t>(count_value());
    } else if (flag == "--expect-workers") {
      expect_workers = count_value();
    } else if (flag == "--lease-ms") {
      dist_lease = std::chrono::milliseconds(count_value());
    } else if (flag == "--heartbeat-ms") {
      dist_heartbeat = std::chrono::milliseconds(count_value());
    } else if (flag == "--shard-retry") {
      shard_retry = static_cast<std::uint32_t>(count_value());
    } else if (flag == "--shards-per-worker") {
      shards_per_worker = static_cast<std::uint32_t>(count_value());
    } else if (flag == "--accept-timeout-sec") {
      accept_timeout = std::chrono::seconds(count_value());
    } else if (flag == "--worker-bin") {
      worker_bin = value();
    } else if (flag == "--worker-fetch-latency-us") {
      worker_fetch_latency_us = count_value();
    } else if (flag == "--worker-arg") {
      worker_extra_args.push_back(value());
    } else if (flag == "--ready-min-workers") {
      fleet_readiness.min_workers = count_value();
    } else if (flag == "--ready-coverage") {
      readiness.min_coverage = double_value();
    } else if (flag == "--ready-max-breaker-opens") {
      readiness.max_breaker_opens = count_value();
    } else if (flag == "--ready-max-age-sec") {
      readiness.max_cycle_age = std::chrono::seconds(count_value());
    } else if (flag == "--ready-max-queue-saturation") {
      readiness.max_queue_saturation = double_value();
    } else if (flag == "--metrics-format") {
      metrics_format = value();
      if (metrics_format != "prom" && metrics_format != "json") {
        std::cerr << "rcdc_validate: --metrics-format wants prom or json, "
                  << "got '" << metrics_format << "'\n";
        return 2;
      }
    } else if (flag == "--quiet") {
      quiet = true;
    } else if (flag == "--help" || flag == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "rcdc_validate: unknown flag '" << flag << "'\n";
      usage();
      return 2;
    }
  }
  if (topology_path.empty()) {
    usage();
    return 2;
  }

  // Distributed mode: shard the device space across worker processes. Any
  // serve/cycles/trace request otherwise turns the offline sweep into a
  // continuously running MonitoringPipeline.
  const bool distributed = spawn_workers > 0 || listen_set;
  const bool pipeline_mode =
      !distributed && (serve_set || cycles_given || !trace_out.empty());
  if ((pipeline_mode || distributed) && !cycles_given && !serve_set) {
    cycles = 1;
  }

  try {
    obs::MetricsRegistry registry;
    obs::MetricsRegistry* metrics =
        (pipeline_mode || distributed || !metrics_out.empty()) ? &registry
                                                               : nullptr;

    // Periodic atomic-rename flush: a killed run still leaves a complete,
    // recent exposition on disk for the scraper/artifact step.
    std::jthread metrics_flusher;
    if (metrics_flush_sec > 0 && !metrics_out.empty()) {
      metrics_flusher = std::jthread([&registry, metrics_out, metrics_format,
                                      metrics_flush_sec](
                                         std::stop_token stop) {
        const auto period = std::chrono::seconds(metrics_flush_sec);
        auto next_flush = std::chrono::steady_clock::now() + period;
        while (!stop.stop_requested()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          if (std::chrono::steady_clock::now() < next_flush) continue;
          if (!write_file_atomic(metrics_out,
                                 render_metrics(registry, metrics_format))) {
            std::cerr << "rcdc_validate: periodic metrics flush to "
                      << metrics_out << " failed\n";
          }
          next_flush = std::chrono::steady_clock::now() + period;
        }
      });
    }

    const topo::Topology topology =
        topo::parse_topology(slurp(topology_path));
    const topo::MetadataService metadata(topology);

    if (distributed) {
      // Coordinator role: SIGPIPE must surface as transport errors, and
      // SIGCHLD marks exited workers for reaping between cycles.
      dist::install_fleet_signal_handlers();
      std::signal(SIGINT, on_signal);
      std::signal(SIGTERM, on_signal);

      dist::TcpListener listener(listen_set ? listen_port : 0);
      if (!quiet || listen_set) {
        // JSON mode keeps stdout machine-readable: the report only.
        std::ostream& log = as_json ? std::cerr : std::cout;
        log << "coordinator: accepting workers on 127.0.0.1:"
            << listener.port() << "\n";
        log.flush();
      }

      dist::WorkerFleet fleet(&registry);
      if (spawn_workers > 0) {
        if (worker_bin.empty()) {
          worker_bin = (std::filesystem::path(argv[0]).parent_path() /
                        "dcv_worker")
                           .string();
        }
        for (unsigned w = 0; w < spawn_workers; ++w) {
          std::vector<std::string> args = {
              worker_bin,
              "--connect",
              "127.0.0.1:" + std::to_string(listener.port()),
              "--topology",
              topology_path,
              "--worker-id",
              "w" + std::to_string(w),
              "--verifier",
              verifier_name,
              "--quiet",
          };
          if (!tables_dir.empty()) {
            args.push_back("--tables");
            args.push_back(tables_dir);
          }
          if (worker_fetch_latency_us > 0) {
            args.push_back("--fetch-latency-us");
            args.push_back(std::to_string(worker_fetch_latency_us));
          }
          args.insert(args.end(), worker_extra_args.begin(),
                      worker_extra_args.end());
          if (fleet.spawn(args) < 0) {
            std::cerr << "rcdc_validate: cannot spawn " << worker_bin << "\n";
            return 1;
          }
        }
      }

      std::size_t expect = expect_workers > 0 ? expect_workers : spawn_workers;
      if (expect == 0) {
        std::cerr << "rcdc_validate: --listen needs --expect-workers N "
                     "(or combine with --workers)\n";
        return 2;
      }

      // The coordinator's trace ring anchors the merged fleet timeline:
      // its own assign/cycle spans land here, worker trees are rebased
      // onto its epoch.
      std::unique_ptr<obs::TraceRing> fleet_trace;
      if (serve_set || !trace_out.empty()) {
        fleet_trace = std::make_unique<obs::TraceRing>(trace_capacity);
        fleet_trace->attach_metrics(registry);
      }

      dist::CoordinatorConfig coordinator_config;
      coordinator_config.lease = dist_lease;
      coordinator_config.heartbeat_interval = dist_heartbeat;
      coordinator_config.shard_retry_budget = shard_retry;
      coordinator_config.shards_per_worker = shards_per_worker;
      coordinator_config.metrics = &registry;
      coordinator_config.trace = fleet_trace.get();
      dist::Coordinator coordinator(metadata, coordinator_config);

      std::unique_ptr<obs::TelemetryServer> server;
      if (serve_set) {
        obs::TelemetryServerConfig server_config;
        server_config.port = serve_port;
        // /tracez serves the merged fleet timeline (coordinator + every
        // worker's re-parented spans), not just the local ring.
        server_config.trace_renderer =
            [&coordinator](std::size_t max_spans) {
              return obs::write_trace_json(coordinator.merger().snapshot(),
                                           max_spans);
            };
        fleet_readiness.min_coverage = readiness.min_coverage;
        server = std::make_unique<obs::TelemetryServer>(
            &registry, fleet_trace.get(),
            dist::make_fleet_probe(coordinator, fleet_readiness),
            server_config);
        // Banner goes to stderr: with --json, stdout is the report and
        // must stay machine-parseable.
        std::cerr << "telemetry: /metrics /metrics.json /healthz /readyz "
                     "/tracez on port "
                  << server->port() << "\n";
      }

      // Admission: accept + handshake until the expected fleet is live.
      const auto accept_deadline =
          std::chrono::steady_clock::now() + accept_timeout;
      while (coordinator.live_workers() < expect && !g_stop &&
             std::chrono::steady_clock::now() < accept_deadline) {
        auto transport = listener.accept(std::chrono::milliseconds(50));
        if (transport != nullptr) {
          coordinator.add_worker(std::move(transport));
        }
        coordinator.pump(expect, std::chrono::milliseconds(10));
        fleet.reap();
      }
      if (coordinator.live_workers() == 0) {
        std::cerr << "rcdc_validate: no workers joined within "
                  << accept_timeout.count() << " s\n";
        return 1;
      }

      bool any_degraded = false;
      std::size_t total_violations = 0;
      std::uint64_t completed = 0;
      std::string last_report;
      for (std::uint64_t c = 0; (cycles == 0 || c < cycles) && !g_stop;
           ++c) {
        dist::DistributedSummary summary = coordinator.run_cycle();
        ++completed;
        any_degraded = any_degraded || summary.degraded();
        total_violations += summary.merged.violations.size();
        for (const dist::WorkerExit& exit : fleet.reap()) {
          if (!quiet) {
            std::cerr << "worker pid " << exit.pid << " exited ("
                      << exit.reason << " " << exit.code << ")\n";
          }
        }
        std::size_t shards_ok = 0;
        for (const dist::ShardOutcome& shard : summary.shards) {
          if (shard.status != dist::ShardStatus::kFailed) ++shards_ok;
        }
        if (!quiet) {
          std::fprintf(
              as_json ? stderr : stdout,
              "cycle %llu: coverage %.1f%%, %zu violations, %zu/%zu shards "
              "validated, %zu reassignments, %zu workers live%s\n",
              static_cast<unsigned long long>(completed),
              100.0 * summary.coverage(), summary.merged.violations.size(),
              shards_ok, summary.shards.size(), summary.reassignments,
              coordinator.live_workers(),
              summary.degraded() ? " [DEGRADED]" : "");
          std::fflush(as_json ? stderr : stdout);
        }
        if (as_json) {
          last_report = dist::write_distributed_report_json(summary, topology);
        }
        // Re-admit reconnecting workers between cycles, then pause.
        const auto pause_until =
            std::chrono::steady_clock::now() + cycle_interval;
        do {
          auto transport = listener.accept(std::chrono::milliseconds(0));
          if (transport != nullptr) {
            coordinator.add_worker(std::move(transport));
            coordinator.pump(expect, std::chrono::milliseconds(20));
          }
          if (std::chrono::steady_clock::now() >= pause_until) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        } while (!g_stop && (cycles == 0 || c + 1 < cycles));
      }

      coordinator.shutdown_workers();
      for (int i = 0; i < 40 && fleet.alive() > 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        fleet.reap();
      }
      if (server != nullptr) server->stop();
      if (as_json) std::cout << last_report;
      if (!metrics_out.empty()) {
        if (!quiet && !as_json) print_latency_table(registry);
        write_metrics_file(registry, metrics_out, metrics_format);
      }
      if (!trace_out.empty()) {
        // One Perfetto-loadable file: coordinator track + one named track
        // per worker, offset-aligned onto the coordinator clock.
        const obs::MergedTrace merged = coordinator.merger().snapshot();
        if (!write_file_atomic(trace_out, obs::write_chrome_trace(merged))) {
          std::cerr << "rcdc_validate: cannot write " << trace_out << "\n";
        } else if (!quiet && !as_json) {
          std::size_t spans = 0;
          for (const obs::MergedTrack& track : merged.tracks) {
            spans += track.events.size();
          }
          std::cout << "fleet trace: " << spans << " spans across "
                    << merged.tracks.size() << " processes written to "
                    << trace_out << "\n";
        }
      }
      if (!as_json) {
        std::cout << "rcdc_validate: " << completed
                  << " distributed cycles, " << total_violations
                  << " violations"
                  << (any_degraded ? " (degraded: lost shards exhausted "
                                     "their retry budget)"
                                   : "")
                  << (g_stop ? " (stopped by signal)" : "") << "\n";
      }
      // Exit codes: degraded completion is distinct from both success and
      // ordinary violations so CI and operators can tell them apart.
      if (any_degraded) return 4;
      return total_violations == 0 ? 0 : 3;
    }

    std::unique_ptr<routing::BgpSimulator> simulator;
    std::unique_ptr<rcdc::FibSource> fibs;
    if (tables_dir.empty()) {
      simulator =
          std::make_unique<routing::BgpSimulator>(topology, nullptr, metrics);
      fibs = std::make_unique<rcdc::SimulatorFibSource>(*simulator);
    } else {
      fibs = std::make_unique<rcdc::TableDirFibSource>(tables_dir, topology);
    }

    // Optional fetch-layer decorators: failure injection under the
    // resilience layer, so retries/breakers see the injected flakiness.
    std::unique_ptr<rcdc::FlakyFibSource> flaky_source;
    std::unique_ptr<rcdc::ResilientFibSource> resilient_source;
    const rcdc::FibSource* active = fibs.get();
    if (use_flaky) {
      flaky_source = std::make_unique<rcdc::FlakyFibSource>(*active, flaky);
      active = flaky_source.get();
    }
    if (use_resilience) {
      resilience.metrics = metrics;
      resilient_source =
          std::make_unique<rcdc::ResilientFibSource>(*active, resilience);
      active = resilient_source.get();
    }

    const rcdc::VerifierFactory factory =
        verifier_name == "smt" ? rcdc::make_smt_verifier_factory(metrics)
                               : rcdc::make_trie_verifier_factory(metrics);

    if (pipeline_mode) {
      std::unique_ptr<obs::TraceRing> trace;
      if (serve_set || !trace_out.empty()) {
        trace = std::make_unique<obs::TraceRing>(trace_capacity);
        trace->attach_metrics(registry);
      }

      rcdc::PipelineConfig pipeline_config;
      pipeline_config.puller_workers = pullers;
      pipeline_config.validator_workers = validators;
      pipeline_config.time_scale = time_scale;
      pipeline_config.seed = pipeline_seed;
      pipeline_config.queue_capacity = queue_capacity;
      pipeline_config.incremental = incremental;
      pipeline_config.metrics = &registry;
      pipeline_config.trace = trace.get();
      rcdc::MonitoringPipeline pipeline(metadata, *active, factory,
                                        pipeline_config);

      std::unique_ptr<gate::GateService> gate_service;
      std::unique_ptr<obs::TelemetryServer> server;
      if (serve_set) {
        obs::TelemetryServerConfig server_config;
        server_config.port = serve_port;
        server_config.worker_threads = http_workers;
        server_config.max_queued_requests = http_queue;
        server_config.http_metrics = &registry;
        // The change gate rides on the telemetry server: one warm precheck
        // session + NSG engine pool, serving POST /precheck and
        // POST /nsg-check next to the scrape endpoints.
        gate::GateConfig gate_config;
        gate_config.metrics = &registry;
        gate_service =
            std::make_unique<gate::GateService>(topology, gate_config);
        server_config.mount = [&gate_service](obs::HttpServer& http) {
          gate_service->attach(http);
        };
        server = std::make_unique<obs::TelemetryServer>(
            &registry, trace.get(),
            gate_service->wrap_probe(
                rcdc::make_pipeline_probe(pipeline, readiness),
                readiness.max_queue_saturation),
            server_config);
        std::cerr << "telemetry: /metrics /metrics.json /healthz /readyz "
                     "/tracez on port "
                  << server->port() << "\n";
        std::cerr << "gate: POST /precheck, POST /nsg-check, GET /gatez "
                     "(base epoch "
                  << gate_service->session().base_epoch() << ")\n";
      }
      std::signal(SIGINT, on_signal);
      std::signal(SIGTERM, on_signal);

      std::size_t total_violations = 0;
      std::uint64_t completed = 0;
      for (std::uint64_t c = 0; (cycles == 0 || c < cycles) && !g_stop;
           ++c) {
        const auto stats = pipeline.run_cycle();
        ++completed;
        total_violations += stats.violations;
        if (!quiet) {
          std::printf(
              "cycle %llu: %zu devices (%zu revalidated, %zu cached), "
              "coverage %.1f%%, %zu violations (%zu high), wall %.3f s\n",
              static_cast<unsigned long long>(completed), stats.devices,
              stats.devices_revalidated, stats.devices_skipped,
              100.0 * stats.coverage(), stats.violations, stats.alerts_high,
              std::chrono::duration<double>(stats.wall).count());
          std::fflush(stdout);
        }
        // Sleep the inter-cycle interval in slices so a signal still stops
        // the run promptly.
        const auto pause_until =
            std::chrono::steady_clock::now() + cycle_interval;
        while (std::chrono::steady_clock::now() < pause_until && !g_stop &&
               (cycles == 0 || c + 1 < cycles)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }

      if (server != nullptr) server->stop();
      if (trace != nullptr && !trace_out.empty()) {
        if (!write_file_atomic(trace_out, obs::write_chrome_trace(*trace))) {
          std::cerr << "rcdc_validate: cannot write " << trace_out << "\n";
          return 1;
        }
        std::cout << "trace: " << trace->size() << " spans ("
                  << trace->dropped() << " dropped) written to " << trace_out
                  << " (Chrome trace-event JSON; open in Perfetto)\n";
      }
      if (!metrics_out.empty()) {
        if (!quiet) print_latency_table(registry);
        write_metrics_file(registry, metrics_out, metrics_format);
        std::cout << "metrics: " << metrics_format << " dump written to "
                  << metrics_out << "\n";
      }
      std::cout << "rcdc_validate: " << completed << " monitoring cycles, "
                << total_violations << " violations"
                << (g_stop ? " (stopped by signal)" : "") << "\n";
      return total_violations == 0 ? 0 : 3;
    }

    const rcdc::DatacenterValidator validator(metadata, *active, factory, {},
                                              metrics);
    const auto summary = validator.run(threads);

    if (as_json) {
      std::cout << rcdc::write_report_json(summary, topology);
      if (metrics != nullptr) {
        write_metrics_file(registry, metrics_out, metrics_format);
      }
      return summary.violations.empty() ? 0 : 3;
    }

    if (!quiet) {
      const rcdc::RiskPolicy risk(topology);
      const rcdc::TriageEngine triage(topology);
      for (const rcdc::Violation& v : summary.violations) {
        const auto assessment = risk.assess(v);
        const auto decision = triage.triage(v);
        std::cout << topology.device(v.device).name << " "
                  << (v.contract.kind == rcdc::ContractKind::kDefault
                          ? "default"
                          : v.contract.prefix.to_string())
                  << " " << to_string(v.kind) << " risk="
                  << to_string(assessment.level)
                  << " action=" << to_string(decision.action) << "\n";
      }
    }
    std::cout << "rcdc_validate: " << summary.devices_checked
              << " devices, " << summary.contracts_checked << " contracts, "
              << summary.violations.size() << " violations in "
              << std::chrono::duration<double>(summary.elapsed).count()
              << " s (" << verifier_name << ", " << threads
              << " threads)\n";
    if (use_flaky || use_resilience || summary.devices_failed > 0) {
      std::cout << "fetch layer: coverage " << 100.0 * summary.coverage()
                << "% (" << summary.devices_failed << " failed, "
                << summary.devices_stale << " stale, " << summary.retries
                << " retries, " << summary.breaker_opens
                << " breaker-opens, " << summary.violations_degraded
                << " degraded-confidence violations)\n";
    }
    if (metrics != nullptr) {
      if (!quiet) print_latency_table(registry);
      write_metrics_file(registry, metrics_out, metrics_format);
      std::cout << "metrics: " << metrics_format << " dump written to "
                << metrics_out << "\n";
    }

    bool beliefs_ok = true;
    if (!beliefs_path.empty()) {
      const auto beliefs =
          rcdc::parse_beliefs(slurp(beliefs_path), topology);
      const rcdc::BeliefChecker checker(metadata, *fibs);
      std::size_t held = 0;
      for (const rcdc::BeliefResult& result : checker.check_all(beliefs)) {
        if (result.holds) {
          ++held;
        } else {
          beliefs_ok = false;
        }
        if (!quiet || !result.holds) {
          std::cout << (result.holds ? "HOLDS " : "BROKEN ")
                    << result.belief.to_string(topology) << "  ("
                    << result.observed << ")\n";
        }
      }
      std::cout << "beliefs: " << held << "/" << beliefs.size()
                << " hold\n";
    }

    if (run_global) {
      const rcdc::GlobalChecker checker(metadata, *fibs);
      const auto result = checker.check_all_pairs(/*max_failures=*/20);
      std::cout << "global baseline: " << result.pairs_checked
                << " pairs, " << result.pairs_fully_redundant
                << " fully redundant, snapshot "
                << std::chrono::duration<double>(result.snapshot_time)
                       .count()
                << " s, analysis "
                << std::chrono::duration<double>(result.analysis_time)
                       .count()
                << " s\n";
      if (!quiet) {
        for (const std::string& failure : result.failures) {
          std::cout << "  global: " << failure << "\n";
        }
      }
    }
    return summary.violations.empty() && beliefs_ok ? 0 : 3;
  } catch (const std::exception& error) {
    std::cerr << "rcdc_validate: " << error.what() << "\n";
    return 1;
  }
}
