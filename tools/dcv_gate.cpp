// dcv_gate — the standalone change-gate server: SecGuru NSG vetting and
// RCDC emulated prechecks as a service (§2.7 + §3.4).
//
// Reads a production topology, builds one warm precheck session (clone +
// cold converge + baseline validation, paid once) and an NSG FastEngine
// pool, then serves until SIGINT/SIGTERM (or --duration-sec):
//
//   POST /precheck   change plan in the dcv_precheck format
//   POST /nsg-check  ?vnet=NAME&space=CIDR&db=0|1, body = NSG table
//   GET  /gatez      gate counters; plus /metrics /healthz /readyz
//
// Exit 0 on clean shutdown.
#include <iostream>
#include <string>

#include "cli.hpp"
#include "gate/gate_service.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "topology/topology_io.hpp"

int main(int argc, char** argv) {
  using namespace dcv;

  std::string topology_path;
  gate::GateConfig gate_config;
  obs::TelemetryServerConfig server_config;
  double ready_saturation = 0.9;
  std::chrono::steady_clock::duration duration{0};
  cli::parse(
      "dcv_gate",
      {
          cli::text("--topology", "FILE", topology_path,
                    "production topology file")
              .require(),
          cli::count("--port", "PORT", server_config.port,
                     "HTTP port (default 0 = ephemeral; the bound port is "
                     "printed on startup)"),
          cli::count("--threads", "N", gate_config.precheck_threads,
                     "precheck emulator and validation threads "
                     "(default 0 = hardware default)"),
          cli::count("--nsg-engines", "N", gate_config.nsg_engines,
                     "pooled FastEngines for /nsg-check (default 2)"),
          cli::count("--http-workers", "N", server_config.worker_threads,
                     "handler threads (default 4)"),
          cli::count("--http-queue", "N", server_config.max_queued_requests,
                     "admission queue bound; beyond it requests are "
                     "answered 429 (default 32)"),
          cli::count("--max-connections", "N", server_config.max_connections,
                     "open-connection cap (default 64)"),
          cli::real("--ready-saturation", "T", ready_saturation,
                    "/readyz fails above this queue saturation (default "
                    "0.9)"),
          cli::duration<std::chrono::seconds>(
              "--duration-sec", duration,
              "serve for N seconds then exit (default 0 = until "
              "SIGINT/SIGTERM)"),
      },
      argc, argv);

  return cli::run([&] {
    const topo::Topology production =
        topo::parse_topology(cli::read_file(topology_path));

    obs::MetricsRegistry registry;
    gate_config.metrics = &registry;
    std::cerr << "dcv_gate: building warm precheck session ("
              << production.device_count() << " devices)...\n";
    gate::GateService service(production, gate_config);

    server_config.http_metrics = &registry;
    server_config.mount = [&service](obs::HttpServer& http) {
      service.attach(http);
    };
    // Liveness is unconditional; readiness follows serving saturation.
    const obs::HealthProbe probe = service.wrap_probe(
        [] {
          return obs::HealthSnapshot{.alive = true, .ready = true};
        },
        ready_saturation);
    obs::TelemetryServer server(&registry, nullptr, probe, server_config);

    cli::install_stop_handlers();
    std::cout << "dcv_gate: serving /precheck /nsg-check /gatez /metrics "
                 "/healthz /readyz on port "
              << server.port() << "\n";
    std::cout.flush();

    cli::pause_for(duration == duration.zero() ? duration.max() : duration);
    server.stop();
    std::cout << "dcv_gate: " << service.prechecks_served() << " prechecks, "
              << service.nsg_checks_served() << " nsg checks"
              << (cli::stop_requested() ? " (stopped by signal)" : "")
              << "\n";
    return 0;
  });
}
