// dcv_trace — dataplane's-eye traceroute over validated FIBs.
//
// Traces one flow hop by hop: longest-prefix match per device, ECMP member
// picked by the 5-tuple hash. Complements rcdc_validate (all contracts)
// and the belief checker (all paths) with the single-path view an
// operator reaches for first when debugging.
#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <string>

#include "cli.hpp"
#include "e2e/trace.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/topology_io.hpp"

int main(int argc, char** argv) {
  using namespace dcv;

  std::string topology_path;
  std::string tables_dir;
  std::string from;
  std::string to_ip;
  std::string src_ip = "10.0.0.1";
  std::uint16_t sport = 40000;
  std::uint16_t dport = 443;
  std::uint8_t proto = 6;
  unsigned flows = 1;
  cli::parse(
      "dcv_trace",
      {
          cli::text("--topology", "FILE", topology_path, "topology file")
              .require(),
          cli::text("--from", "DEVICE", from, "device the flow enters at")
              .require(),
          cli::text("--to", "IP", to_ip, "destination address").require(),
          cli::text("--tables", "DIR", tables_dir,
                    "per-device routing tables (<name>.rt); default: "
                    "simulate EBGP over the topology's recorded state"),
          cli::text("--src", "IP", src_ip,
                    "source address (default 10.0.0.1)"),
          cli::count("--sport", "N", sport, "source port (default 40000)"),
          cli::count("--dport", "N", dport, "destination port (default 443)"),
          cli::count("--proto", "N", proto, "IP protocol (default 6/tcp)"),
          cli::count("--flows", "N", flows,
                     "trace N flows varying the source port, which must "
                     "stay within 65535 (default 1)"),
      },
      argc, argv);
  flows = std::max(1u, flows);
  if (flows - 1 > 65535u - sport) {
    cli::usage_error(std::to_string(flows) + " flows from source port " +
                     std::to_string(sport) + " run past port 65535");
  }

  return cli::run([&] {
    const topo::Topology topology =
        topo::parse_topology(cli::read_file(topology_path));
    const topo::MetadataService metadata(topology);
    const auto source = topology.find_device(from);
    if (!source) throw std::runtime_error("unknown device '" + from + "'");

    std::unique_ptr<routing::BgpSimulator> simulator;
    std::unique_ptr<rcdc::FibSource> fibs;
    if (tables_dir.empty()) {
      simulator = std::make_unique<routing::BgpSimulator>(topology);
      fibs = std::make_unique<rcdc::SimulatorFibSource>(*simulator);
    } else {
      fibs = std::make_unique<rcdc::TableDirFibSource>(tables_dir, topology);
    }

    bool all_delivered = true;
    for (unsigned flow = 0; flow < flows; ++flow) {
      const net::PacketHeader packet{
          .src_ip = net::Ipv4Address::parse(src_ip),
          .src_port = static_cast<std::uint16_t>(sport + flow),
          .dst_ip = net::Ipv4Address::parse(to_ip),
          .dst_port = dport,
          .protocol = proto};
      const auto result = e2e::trace_flow(metadata, *fibs, *source, packet);
      std::cout << packet.to_string() << ": "
                << result.to_string(topology) << "\n";
      all_delivered = all_delivered &&
                      result.outcome ==
                          e2e::TraceResult::Outcome::kDelivered;
    }
    return all_delivered ? 0 : 3;
  });
}
