// dcv_precheck — gate network changes before rollout (§2.7, Figure 7).
//
// Reads a production topology file and a change plan; each change is
// applied to an emulated clone, routing re-runs, and RCDC's contracts
// decide. The plan format is line-oriented:
//
//   # comments allowed
//   change renumber ToR1
//   set-asn T0-0-0 64990
//   change migrate cluster leaves
//   set-asn T1-2-0 65100
//   set-asn T1-2-1 65100
//   change maintenance window
//   shut-link T0-0-0 T1-0-0
//   down-link T1-0-1 T2-1-0
//
// Each `change <description>` opens a change; the following set-asn /
// shut-link / down-link lines belong to it. Exit 0 iff every change is
// approved.
#include <iostream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "net/error.hpp"
#include "rcdc/precheck.hpp"
#include "rcdc/precheck_io.hpp"
#include "topology/topology_io.hpp"

int main(int argc, char** argv) {
  using namespace dcv;

  std::string topology_path;
  std::string plan_path;
  bool quiet = false;
  cli::parse("dcv_precheck",
             {
                 cli::text("--topology", "FILE", topology_path,
                           "production topology file")
                     .require(),
                 cli::text("--plan", "FILE", plan_path,
                           "change plan: 'change <description>' lines, "
                           "each followed by its set-asn / shut-link / "
                           "down-link lines")
                     .require(),
                 cli::toggle("--quiet", quiet,
                             "print only the verdict line of each change, "
                             "not the violations it introduces"),
             },
             argc, argv);

  return cli::run([&] {
    const topo::Topology production =
        topo::parse_topology(cli::read_file(topology_path));
    const auto plan =
        rcdc::parse_change_plan(cli::read_file(plan_path), production);
    const rcdc::PrecheckPipeline pipeline(production);
    const auto results = pipeline.check_rollout(plan);

    bool all_approved = results.size() == plan.size();
    for (const rcdc::PrecheckResult& result : results) {
      all_approved = all_approved && result.approved;
      std::cout << (result.approved ? "APPROVED " : "REJECTED ")
                << result.description << " (baseline "
                << result.baseline_violations << ", after "
                << result.post_change_violations << ", introduced "
                << result.introduced.size() << ")\n";
      if (!quiet) {
        std::size_t shown = 0;
        for (const rcdc::Violation& v : result.introduced) {
          if (shown++ >= 10) break;
          std::cout << "  " << production.device(v.device).name << " "
                    << v.contract.prefix.to_string() << " "
                    << to_string(v.kind) << "\n";
        }
      }
    }
    return all_approved ? 0 : 3;
  });
}
