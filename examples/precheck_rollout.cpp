// Preventing dangerous changes (§2.7, Figure 7): proposed network changes
// are applied to an emulated clone of production (one PrecheckSession),
// routing reconverges, and the same RCDC contracts used for live
// monitoring gate the rollout. The rollout below reproduces the §2.6.2
// "Migrations" root cause — a leaf-ASN collision between decommissioned
// and new infrastructure — which the pre-check rejects before it reaches
// production.
#include <iostream>

#include "rcdc/precheck.hpp"
#include "topology/clos_builder.hpp"

int main() {
  using namespace dcv;

  topo::Topology production = topo::build_clos(topo::ClosParams{
      .clusters = 3,
      .tors_per_cluster = 4,
      .leaves_per_cluster = 4,
      .spines_per_plane = 2,
      .regional_spines = 4});
  std::cout << "== RCDC pre-check workflow (Figure 7) ==\n"
            << "production: " << production.device_count()
            << " devices; every change is emulated and validated against "
               "the same contracts as live monitoring\n\n";

  rcdc::PrecheckSession session(production);

  std::vector<rcdc::NetworkChange> rollout;
  // Step 1: benign — renumber a ToR within its cluster's unique range.
  rollout.push_back(rcdc::reassign_asn(
      "renumber T0-0-0 to ASN 64990",
      *production.find_device("T0-0-0"), 64990));
  // Step 2: the migration misconfiguration — cluster 2's leaves get
  // cluster 0's leaf ASN.
  rollout.push_back(rcdc::NetworkChange{
      .description = "migrate cluster 2 leaves onto cluster 0's ASN",
      .apply = [](topo::Topology& emulated) {
        const topo::Asn asn =
            emulated.device(emulated.leaves_in_cluster(0)[0]).asn;
        for (const topo::DeviceId leaf : emulated.leaves_in_cluster(2)) {
          emulated.set_asn(leaf, asn);
        }
      }});
  // Step 3: would be fine, but the rollout never gets here.
  rollout.push_back(rcdc::reassign_asn(
      "renumber T0-1-0 to ASN 64991",
      *production.find_device("T0-1-0"), 64991));

  const auto results = session.check_rollout(rollout);
  for (const rcdc::PrecheckResult& result : results) {
    std::cout << (result.approved ? "APPROVED " : "REJECTED ")
              << result.description << "\n"
              << "  baseline violations: " << result.baseline_violations
              << ", after change: " << result.post_change_violations
              << ", introduced: " << result.introduced.size() << "\n";
    std::size_t shown = 0;
    for (const rcdc::Violation& v : result.introduced) {
      if (shown++ >= 5) {
        std::cout << "    ... and " << result.introduced.size() - 5
                  << " more\n";
        break;
      }
      std::cout << "    " << production.device(v.device).name << " "
                << v.contract.prefix.to_string() << " "
                << to_string(v.kind) << "\n";
    }
  }
  if (results.size() < rollout.size()) {
    std::cout << "\nrollout halted: step " << results.size()
              << " rejected; later steps were never attempted.\n";
  }
  return 0;
}
