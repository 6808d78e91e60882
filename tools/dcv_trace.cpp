// dcv_trace — dataplane's-eye traceroute over validated FIBs.
//
// Traces one flow hop by hop: longest-prefix match per device, ECMP member
// picked by the 5-tuple hash. Complements rcdc_validate (all contracts)
// and the belief checker (all paths) with the single-path view an
// operator reaches for first when debugging.
#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "e2e/trace.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/topology_io.hpp"

namespace {

using namespace dcv;

void usage() {
  std::cerr <<
      "usage: dcv_trace --topology FILE --from DEVICE --to IP [options]\n"
      "  --tables DIR     per-device routing tables (<name>.rt); default:\n"
      "                   simulate EBGP over the topology's recorded state\n"
      "  --src IP         source address (default 10.0.0.1)\n"
      "  --sport N        source port (default 40000)\n"
      "  --dport N        destination port (default 443)\n"
      "  --proto N        IP protocol (default 6/tcp)\n"
      "  --flows N        trace N flows varying the source port (default 1)\n";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "dcv_trace: cannot read " << path << "\n";
    std::exit(1);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

unsigned parse_number(const std::string& text, const char* flag) {
  unsigned value = 0;
  const auto [next, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || next != text.data() + text.size()) {
    std::cerr << "dcv_trace: bad value for " << flag << "\n";
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string topology_path;
  std::string tables_dir;
  std::string from;
  std::string to_ip;
  std::string src_ip = "10.0.0.1";
  unsigned sport = 40000;
  unsigned dport = 443;
  unsigned proto = 6;
  unsigned flows = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "dcv_trace: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--topology") {
      topology_path = value();
    } else if (flag == "--tables") {
      tables_dir = value();
    } else if (flag == "--from") {
      from = value();
    } else if (flag == "--to") {
      to_ip = value();
    } else if (flag == "--src") {
      src_ip = value();
    } else if (flag == "--sport") {
      sport = parse_number(value(), "--sport");
    } else if (flag == "--dport") {
      dport = parse_number(value(), "--dport");
    } else if (flag == "--proto") {
      proto = parse_number(value(), "--proto");
    } else if (flag == "--flows") {
      flows = std::max(1u, parse_number(value(), "--flows"));
    } else if (flag == "--help" || flag == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "dcv_trace: unknown flag '" << flag << "'\n";
      usage();
      return 2;
    }
  }
  if (topology_path.empty() || from.empty() || to_ip.empty()) {
    usage();
    return 2;
  }

  try {
    const topo::Topology topology =
        topo::parse_topology(slurp(topology_path));
    const topo::MetadataService metadata(topology);
    const auto source = topology.find_device(from);
    if (!source) {
      std::cerr << "dcv_trace: unknown device '" << from << "'\n";
      return 1;
    }

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
          .dst_port = static_cast<std::uint16_t>(dport),
          .protocol = static_cast<std::uint8_t>(proto)};
      const auto result = e2e::trace_flow(metadata, *fibs, *source, packet);
      std::cout << packet.to_string() << ": "
                << result.to_string(topology) << "\n";
      all_delivered = all_delivered &&
                      result.outcome ==
                          e2e::TraceResult::Outcome::kDelivered;
    }
    return all_delivered ? 0 : 3;
  } catch (const std::exception& error) {
    std::cerr << "dcv_trace: " << error.what() << "\n";
    return 1;
  }
}
