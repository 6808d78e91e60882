#include "rcdc/precheck.hpp"

#include <algorithm>
#include <utility>

#include "exec/executor.hpp"
#include "rcdc/trie_verifier.hpp"

namespace dcv::rcdc {

NetworkChange reassign_asn(std::string description, topo::DeviceId device,
                           topo::Asn asn) {
  return NetworkChange{.description = std::move(description),
                       .apply = [device, asn](topo::Topology& topology) {
                         topology.set_asn(device, asn);
                       }};
}

NetworkChange shut_links(std::string description,
                         std::vector<topo::LinkId> links) {
  return NetworkChange{
      .description = std::move(description),
      .apply = [links = std::move(links)](topo::Topology& topology) {
        for (const topo::LinkId link : links) {
          topology.set_bgp_state(link, topo::BgpSessionState::kAdminShutdown);
        }
      }};
}

namespace {

std::vector<Violation> validate_emulated(const routing::BgpSimulator& simulator,
                                         const topo::MetadataService& intent,
                                         ContractGenOptions options,
                                         unsigned threads) {
  const SimulatorFibSource fibs(simulator);
  const DatacenterValidator validator(intent, fibs,
                                      make_trie_verifier_factory(), options);
  return validator.run(threads).violations;
}

}  // namespace

PrecheckResult PrecheckPipeline::check(const NetworkChange& change) const {
  PrecheckResult result;
  result.description = change.description;
  const unsigned threads = exec::default_threads(threads_);

  // Intent derives from the production architecture; the emulator clone
  // carries the production state including any current drift.
  const topo::MetadataService intent(*production_);

  topo::Topology emulated = *production_;  // "same topology as production"
  // One simulator across the before/after comparison: applying the change
  // and warm-starting reconvergence from the touched devices is the
  // emulation analogue of pushing a change into a converged network.
  routing::BgpSimulator simulator(emulated, nullptr, nullptr,
                                  {.threads = threads});
  const auto baseline = validate_emulated(simulator, intent, options_, threads);
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

std::vector<PrecheckResult> PrecheckPipeline::check_rollout(
    const std::vector<NetworkChange>& changes) const {
  std::vector<PrecheckResult> results;
  for (const NetworkChange& change : changes) {
    results.push_back(check(change));
    if (!results.back().approved) break;
  }
  return results;
}

PrecheckSession::PrecheckSession(const topo::Topology& production,
                                 ContractGenOptions options, unsigned threads)
    : options_(options),
      threads_(exec::default_threads(threads)),
      base_epoch_(production.epoch()),
      base_(production),
      emulated_(production),
      intent_(base_),
      simulator_(emulated_, nullptr, nullptr, {.threads = threads_}),
      fibs_(simulator_),
      validator_(intent_, fibs_, make_trie_verifier_factory(), options_) {
  // The one cold pass: converge (done by the simulator constructor),
  // validate everything, and record the per-device baseline every later
  // check diffs against. The entries pin no table handle: reconvergence
  // rebuilds exactly the candidates' tables, so identity could never match
  // one, and pinning would keep a second copy of every rebuilt table.
  const ValidationSummary summary = validator_.run(threads_);
  baseline_total_ = summary.violations.size();
  baseline_.set_epoch(base_epoch_, base_.device_count());
  auto violation = summary.violations.begin();  // sorted by device
  for (std::size_t d = 0; d < base_.device_count(); ++d) {
    const auto device = static_cast<topo::DeviceId>(d);
    const auto first = violation;
    while (violation != summary.violations.end() &&
           violation->device == device) {
      ++violation;
    }
    (void)baseline_.store(device, nullptr, fingerprint(simulator_.fib(device)),
                          {first, violation});
  }
  (void)simulator_.take_changed_devices();  // the cold run marked everything
}

PrecheckResult PrecheckSession::check(const NetworkChange& change) {
  return check_batch({NetworkChange{change.description, change.apply}})
      .front();
}

PrecheckResult PrecheckSession::evaluate(
    const std::string& description, std::vector<topo::DeviceId>& divergent) {
  PrecheckResult result;
  result.description = description;
  result.baseline_violations = baseline_total_;

  // Candidate set: devices already divergent before this step plus devices
  // the reconvergence just touched. Everything else is fingerprint-equal
  // to the baseline by induction and need not be re-examined.
  std::vector<topo::DeviceId> candidates = simulator_.take_changed_devices();
  candidates.insert(candidates.end(), divergent.begin(), divergent.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  divergent.clear();
  for (const topo::DeviceId device : candidates) {
    if (baseline_.lookup(device, simulator_.fib_handle(device)).violations ==
        nullptr) {
      divergent.push_back(device);
    }
  }
  devices_revalidated_ += divergent.size();
  devices_skipped_ += base_.device_count() - divergent.size();
  ++checks_run_;

  if (divergent.empty()) {
    result.post_change_violations = baseline_total_;
    result.approved = true;
    return result;
  }

  ValidationSummary summary = validator_.run(divergent, threads_);
  std::size_t baseline_on_divergent = 0;
  for (const topo::DeviceId device : divergent) {
    baseline_on_divergent += baseline_.violations(device).size();
  }
  result.post_change_violations =
      baseline_total_ - baseline_on_divergent + summary.violations.size();
  for (Violation& violation : summary.violations) {
    const auto& base = baseline_.violations(violation.device);
    if (std::find(base.begin(), base.end(), violation) == base.end()) {
      result.introduced.push_back(std::move(violation));
    }
  }
  result.approved = result.introduced.empty();
  return result;
}

std::vector<PrecheckResult> PrecheckSession::check_batch(
    const std::vector<NetworkChange>& changes) {
  std::vector<PrecheckResult> results;
  results.reserve(changes.size());
  if (changes.empty()) return results;

  // Devices whose FIB currently differs from the baseline fixpoint
  // (relative to the state the simulator is converged on). Starts empty:
  // the session is always at the baseline between batches.
  std::vector<topo::DeviceId> divergent;

  for (std::size_t i = 0; i < changes.size(); ++i) {
    // Revert the previous change and apply this one as ONE topology delta,
    // then warm-reconverge once — the batch amortization (K+1 instead of
    // 2K reconvergences for K changes).
    if (i > 0) emulated_ = base_;
    std::string error;
    try {
      changes[i].apply(emulated_);
    } catch (const std::exception& exception) {
      error = exception.what();
      emulated_ = base_;  // drop any partial mutation
    }
    if (error.empty() && (emulated_.device_count() != base_.device_count() ||
                          emulated_.link_count() != base_.link_count())) {
      // Fabric-shape changes invalidate the per-device baseline mapping;
      // they belong in the cold PrecheckPipeline, not the warm session.
      error = "shape-changing change not supported by the warm session";
      emulated_ = base_;
    }
    simulator_.reconverge();

    if (!error.empty()) {
      // The emulated network is back at (a state fingerprint-equal to) the
      // baseline; refresh the divergence bookkeeping and report the error.
      PrecheckResult failed = evaluate(changes[i].description, divergent);
      failed.error = std::move(error);
      failed.approved = false;
      results.push_back(std::move(failed));
      continue;
    }
    results.push_back(evaluate(changes[i].description, divergent));
  }

  // Roll back the last change so the session is at the baseline again.
  emulated_ = base_;
  simulator_.reconverge();
  (void)simulator_.take_changed_devices();  // all baseline-equal again
  return results;
}

}  // namespace dcv::rcdc
