#pragma once

// The cold precheck oracle: what PrecheckSession must answer, computed the
// slow, obvious way. Each check clones production, cold-converges a fresh
// simulator on the clone, applies the change, reconverges, and validates
// every device both before and after the change. Test-only: the product
// engine is PrecheckSession.

#include <algorithm>
#include <utility>
#include <vector>

#include "exec/executor.hpp"
#include "rcdc/contract_gen.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/precheck.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/metadata.hpp"
#include "topology/topology.hpp"

namespace dcv::rcdc {

inline std::vector<Violation> validate_emulated(
    const routing::BgpSimulator& simulator, const topo::MetadataService& intent,
    ContractGenOptions options, unsigned threads) {
  const SimulatorFibSource fibs(simulator);
  const DatacenterValidator validator(intent, fibs,
                                      make_trie_verifier_factory(), options);
  return validator.run(threads).violations;
}

class PrecheckPipeline {
 public:
  /// `production` is cloned per check; contracts derive from its unmodified
  /// metadata. `threads` as in PrecheckSession.
  explicit PrecheckPipeline(const topo::Topology& production,
                            ContractGenOptions options = {},
                            unsigned threads = 0)
      : production_(&production), options_(options), threads_(threads) {}

  [[nodiscard]] PrecheckResult check(const NetworkChange& change) const {
    PrecheckResult result;
    result.description = change.description;
    const unsigned threads = exec::default_threads(threads_);
    const topo::MetadataService intent(*production_);

    topo::Topology emulated = *production_;
    routing::BgpSimulator simulator(emulated, nullptr, nullptr,
                                    {.threads = threads});
    const auto baseline =
        validate_emulated(simulator, intent, options_, threads);
    result.baseline_violations = baseline.size();

    change.apply(emulated);
    simulator.reconverge();
    auto post = validate_emulated(simulator, intent, options_, threads);
    result.post_change_violations = post.size();

    // The change is charged only with violations absent from the baseline.
    for (Violation& violation : post) {
      if (std::find(baseline.begin(), baseline.end(), violation) ==
          baseline.end()) {
        result.introduced.push_back(std::move(violation));
      }
    }
    result.approved = result.introduced.empty();
    return result;
  }

 private:
  const topo::Topology* production_;
  ContractGenOptions options_;
  unsigned threads_ = 0;
};

}  // namespace dcv::rcdc
