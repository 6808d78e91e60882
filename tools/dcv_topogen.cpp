// dcv_topogen — synthetic datacenter topology generator.
//
// The stand-in for the cloud topology generator the paper points to for
// reproducing its benchmarks (§2.6.3 [29]): emits a Clos datacenter (or a
// multi-datacenter region) in the dcvalidate topology text format, and
// optionally the per-device routing tables of the converged fault-free
// network in the Figure 2 text format.
#include <filesystem>
#include <iostream>
#include <string>

#include "cli.hpp"
#include "routing/fib_synthesizer.hpp"
#include "routing/table_io.hpp"
#include "topology/clos_builder.hpp"
#include "topology/topology_io.hpp"

int main(int argc, char** argv) {
  using namespace dcv;

  topo::ClosParams params{.clusters = 4,
                          .tors_per_cluster = 8,
                          .leaves_per_cluster = 4,
                          .spines_per_plane = 2,
                          .regional_spines = 4};
  std::uint32_t datacenters = 1;
  std::string out_path;
  std::string tables_dir;
  const auto size = [](std::string name, std::uint32_t& out,
                       std::string help) {
    return cli::count(std::move(name), "N", out, std::move(help), 1);
  };
  cli::parse(
      "dcv_topogen",
      {
          size("--clusters", params.clusters,
               "clusters per datacenter (default 4)"),
          size("--tors", params.tors_per_cluster,
               "ToRs per cluster (default 8)"),
          size("--leaves", params.leaves_per_cluster,
               "leaves per cluster / planes (default 4)"),
          size("--spines-per-plane", params.spines_per_plane,
               "spines per plane (default 2)"),
          size("--regionals", params.regional_spines,
               "regional spines (default 4)"),
          size("--prefixes", params.prefixes_per_tor,
               "hosted prefixes per ToR (default 1)"),
          size("--datacenters", datacenters,
               "datacenters sharing the regional layer (default 1)"),
          cli::text("--out", "FILE", out_path,
                    "topology file (default: stdout)"),
          cli::text("--tables", "DIR", tables_dir,
                    "also write per-device routing tables"),
      },
      argc, argv);

  return cli::run([&] {
    const topo::Topology topology =
        datacenters == 1 ? topo::build_clos(params)
                         : topo::build_region(params, datacenters);
    const std::string text = topo::write_topology(topology);
    if (out_path.empty()) {
      std::cout << text;
    } else {
      if (!cli::write_file_atomic(out_path, text)) return 1;
      std::cerr << "dcv_topogen: wrote " << topology.device_count()
                << " devices to " << out_path << "\n";
    }

    if (!tables_dir.empty()) {
      std::filesystem::create_directories(tables_dir);
      const topo::MetadataService metadata(topology);
      const routing::FibSynthesizer synthesizer(metadata);
      for (const topo::Device& device : topology.devices()) {
        const auto path =
            std::filesystem::path(tables_dir) / (device.name + ".rt");
        const std::string table =
            routing::write_routing_table(synthesizer.fib(device.id));
        if (!cli::write_file_atomic(path.string(), table)) return 1;
      }
      std::cerr << "dcv_topogen: wrote " << topology.device_count()
                << " routing tables to " << tables_dir << "/\n";
    }
    return 0;
  });
}
