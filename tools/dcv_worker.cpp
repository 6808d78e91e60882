// dcv_worker — one validation worker of a distributed RCDC fleet.
//
// Connects to a coordinator (rcdc_validate --workers/--listen), loads the
// same topology file, and serves shard assignments: fetch each assigned
// device's table through the local fib-source stack, check the contracts
// that arrived on the wire, and stream the result (summary, violations,
// FIB fingerprints, serialized metrics registry) back. On connection loss
// it reconnects with exponential backoff; on kShutdown it exits 0.
#include <unistd.h>

#include <csignal>
#include <iostream>
#include <string>

#include "cli.hpp"
#include "dist/transport.hpp"
#include "dist/worker.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/flaky_fib_source.hpp"
#include "rcdc/resilient_fib_source.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "routing/fib_synthesizer.hpp"
#include "topology/topology_io.hpp"

namespace {

constexpr std::array<std::string_view, 2> kSources = {"sim", "synth"};

}  // namespace

int main(int argc, char** argv) {
  using namespace dcv;

  std::string connect_spec;
  std::string topology_path;
  std::string tables_dir;
  std::string source_name = "sim";
  std::string verifier_name = "trie";
  std::string worker_id;
  std::string metrics_out;
  std::string metrics_format = "prom";
  std::string trace_out;
  std::size_t trace_capacity = 4096;
  dist::WorkerSessionConfig session_config;
  dist::ReconnectPolicy reconnect;
  rcdc::FlakyConfig flaky;
  bool use_flaky = false;
  bool quiet = false;
  std::vector<cli::Flag> flags = {
      cli::text("--connect", "HOST:PORT", connect_spec,
                "coordinator address")
          .require(),
      cli::text("--topology", "FILE", topology_path,
                "topology file (the coordinator's)")
          .require(),
      cli::text("--tables", "DIR", tables_dir,
                "per-device routing tables (<name>.rt); default: simulate "
                "EBGP over recorded state"),
      cli::choice("--source", "sim|synth", source_name, kSources,
                  "table source when no tables directory is given: sim "
                  "(EBGP simulation, default) or synth (O(1)-memory "
                  "synthesized converged FIBs)"),
      cli::choice("--verifier", "V", verifier_name, rcdc::kVerifierNames,
                  "trie (default), smt, or linear"),
      cli::text("--worker-id", "NAME", worker_id,
                "identity in coordinator metrics (default w<pid>)"),
      cli::duration<std::chrono::microseconds>(
          "--fetch-latency-us", session_config.fetch_latency,
          "simulated per-device pull latency (the paper's 200-800 ms "
          "acquisition cost; default 0)"),
      cli::real("--time-scale", "X", session_config.time_scale,
                "scale factor on the simulated latency (default 1.0)"),
      cli::count("--reconnect-attempts", "N", reconnect.max_attempts,
                 "consecutive failed connects before giving up (default "
                 "10)"),
      cli::duration<std::chrono::milliseconds>(
          "--reconnect-backoff-ms", reconnect.initial_backoff,
          "initial reconnect backoff, doubled per attempt, capped at 5 s "
          "(default 100)"),
      cli::toggle("--quiet", quiet, "suppress per-connection log lines"),
      cli::section("local telemetry dumps (written once, at exit):"),
      cli::text("--metrics-out", "FILE", metrics_out,
                "dump this worker's metrics registry"),
      cli::choice("--metrics-format", "F", metrics_format,
                  cli::kMetricsFormats, "prom (default) or json"),
      cli::text("--trace-out", "FILE", trace_out,
                "dump this worker's own span timeline as a Chrome/Perfetto "
                "trace (the coordinator merges the same spans fleet-wide)"),
      cli::count("--trace-capacity", "N", trace_capacity,
                 "span ring capacity (default 4096)", 1),
  };
  for (cli::Flag& flag : cli::flaky_flags(flaky, use_flaky)) {
    flags.push_back(std::move(flag));
  }
  cli::parse("dcv_worker", flags, argc, argv);
  const auto colon = connect_spec.rfind(':');
  const auto port =
      colon == std::string::npos
          ? std::nullopt
          : cli::parse_unsigned(
                std::string_view(connect_spec).substr(colon + 1), 1, 65535);
  if (!port) {
    cli::usage_error("coordinator address '" + connect_spec +
                     "' wants HOST:PORT with a port in [1, 65535]");
  }
  const std::string host = connect_spec.substr(0, colon);
  if (worker_id.empty()) worker_id = "w" + std::to_string(::getpid());

  cli::install_stop_handlers();
  std::signal(SIGPIPE, SIG_IGN);

  return cli::run([&] {
    const topo::Topology topology =
        topo::parse_topology(cli::read_file(topology_path));
    const topo::MetadataService metadata(topology);
    obs::MetricsRegistry registry;
    std::unique_ptr<obs::TraceRing> trace;
    if (!trace_out.empty()) {
      trace = std::make_unique<obs::TraceRing>(trace_capacity);
      trace->attach_metrics(registry);
    }
    const auto dump_telemetry = [&] {
      if (!metrics_out.empty()) {
        cli::write_metrics(registry, metrics_out, metrics_format);
      }
      if (trace != nullptr) {
        cli::write_file_atomic(trace_out, obs::write_chrome_trace(*trace));
      }
    };

    std::unique_ptr<routing::BgpSimulator> simulator;
    std::unique_ptr<routing::FibSynthesizer> synthesizer;
    std::unique_ptr<rcdc::FibSource> fibs;
    if (!tables_dir.empty()) {
      fibs = std::make_unique<rcdc::TableDirFibSource>(tables_dir, topology);
    } else if (source_name == "synth") {
      synthesizer = std::make_unique<routing::FibSynthesizer>(metadata);
      fibs = std::make_unique<rcdc::SynthesizedFibSource>(*synthesizer);
    } else {
      simulator = std::make_unique<routing::BgpSimulator>(topology);
      fibs = std::make_unique<rcdc::SimulatorFibSource>(*simulator);
    }
    std::unique_ptr<rcdc::FlakyFibSource> flaky_source;
    const rcdc::FibSource* active = fibs.get();
    if (use_flaky) {
      flaky_source = std::make_unique<rcdc::FlakyFibSource>(*active, flaky);
      active = flaky_source.get();
    }

    session_config.id = worker_id;
    session_config.topology_epoch = topology.epoch();
    session_config.metrics = &registry;
    session_config.trace = trace.get();
    dist::WorkerSession session(
        *active, rcdc::make_verifier_factory(verifier_name, &registry),
        session_config);

    rcdc::SystemFetchClock clock;
    std::uint32_t failed_connects = 0;
    while (!cli::stop_requested()) {
      auto transport =
          dist::connect_tcp(host, static_cast<std::uint16_t>(*port),
                          std::chrono::milliseconds(3000));
      if (transport == nullptr) {
        ++failed_connects;
        if (failed_connects >= reconnect.max_attempts) {
          std::cerr << "dcv_worker: " << worker_id << ": coordinator at "
                    << connect_spec << " unreachable after "
                    << failed_connects << " attempts\n";
          dump_telemetry();
          return 1;
        }
        clock.sleep_for(reconnect_backoff(reconnect, failed_connects + 1));
        continue;
      }
      failed_connects = 0;
      if (!quiet) {
        std::cerr << "dcv_worker: " << worker_id << ": connected to "
                  << connect_spec << "\n";
      }
      const std::uint64_t before = session.shards_validated();
      const dist::SessionEnd end = session.run(*transport);
      if (end == dist::SessionEnd::kShutdown) {
        if (!quiet) {
          std::cerr << "dcv_worker: " << worker_id << ": shutdown ("
                    << session.shards_validated() << " shards validated)\n";
        }
        dump_telemetry();
        return 0;
      }
      // Connection lost. A session that did real work earns a fresh
      // reconnect budget; a rejected/immediately-dropped one burns it.
      if (session.shards_validated() == before) ++failed_connects;
      if (failed_connects >= reconnect.max_attempts) {
        std::cerr << "dcv_worker: " << worker_id
                  << ": giving up after repeated connection losses\n";
        dump_telemetry();
        return 1;
      }
      clock.sleep_for(reconnect_backoff(reconnect, failed_connects + 1));
    }
    dump_telemetry();
    return 0;
  });
}
