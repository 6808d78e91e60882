#include "rcdc/precheck.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "exec/executor.hpp"
#include "obs/span.hpp"
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
                                 ContractGenOptions options, unsigned threads,
                                 obs::MetricsRegistry* metrics)
    : threads_(exec::default_threads(threads)),
      base_epoch_(production.epoch()),
      base_(production),
      emulated_(production),
      intent_(base_),
      plan_(ContractGenerator(intent_, options).plan()),
      simulator_(emulated_, nullptr, nullptr, {.threads = threads_}),
      verifier_factory_(make_trie_verifier_factory()),
      steps_(threads_),
      fib_scratch_(threads_) {
  if (metrics != nullptr) {
    const auto phase = [metrics](const char* name) {
      return &metrics->histogram(
          "dcv_precheck_phase_ns",
          "Per-change precheck time, by phase: reconverge (apply + warm "
          "reconverge), diff (new tables and their exact compare with the "
          "baseline) and verify (delta recheck), each summed over the "
          "changed devices, and rollback (topology restore + undo log)",
          {{"phase", name}});
    };
    reconverge_ns_ = phase("reconverge");
    diff_ns_ = phase("diff");
    verify_ns_ = phase("verify");
    rollback_ns_ = phase("rollback");
    contracts_rechecked_total_ = &metrics->counter(
        "dcv_precheck_contracts_rechecked_total",
        "Contracts prechecks ran through the verifier; the rest kept their "
        "baseline verdict");
  }
  // The one cold pass: converge (done by the simulator constructor),
  // validate everything, and pin every device's baseline table with its
  // verdict. Rollback restores these very handles to the simulator's cache;
  // a changed device's new table is compared with its baseline table.
  baseline_.resize(base_.device_count());
  exec::for_each(threads_, baseline_.size(), [&](unsigned worker,
                                                 std::size_t d) {
    const auto device = static_cast<topo::DeviceId>(d);
    Baseline& base = baseline_[d];
    base.table = simulator_.fib_handle(device);
    const std::span<const Contract> contracts = plan_->contracts_for(device);
    if (!contracts.empty()) {
      base.violations = step(worker).check(device, contracts, base.table,
                                           false);
    }
  });
  for (const Baseline& base : baseline_) {
    baseline_total_ += base.violations.size();
  }
  (void)simulator_.take_changed_devices();  // the cold run marked everything
}

DeviceStep& PrecheckSession::step(unsigned worker) {
  std::optional<DeviceStep>& slot = steps_[worker];
  if (!slot) slot.emplace(verifier_factory_, tally_, step_metrics_);
  return *slot;
}

std::vector<PrecheckResult> PrecheckSession::check_batch(
    const std::vector<NetworkChange>& changes) {
  std::vector<PrecheckResult> results;
  results.reserve(changes.size());
  for (const NetworkChange& change : changes) {
    results.push_back(check(change));
  }
  return results;
}

PrecheckResult PrecheckSession::check(const NetworkChange& change) {
  PrecheckResult result;
  result.description = change.description;
  result.baseline_violations = baseline_total_;
  result.post_change_violations = baseline_total_;
  ++checks_run_;

  obs::ScopedTimer reconverge_timer(reconverge_ns_);
  simulator_.checkpoint();
  try {
    change.apply(emulated_);
  } catch (const std::exception& exception) {
    result.error = exception.what();
  }
  if (result.error.empty() &&
      (emulated_.device_count() != base_.device_count() ||
       emulated_.link_count() != base_.link_count())) {
    // Fabric-shape changes invalidate the per-device baseline mapping;
    // they belong in the cold PrecheckPipeline, not the warm session.
    result.error = "shape-changing change not supported by the warm session";
  }
  if (!result.error.empty()) {
    reconverge_timer.cancel();
    emulated_ = base_;  // drop any partial mutation
    simulator_.rollback();
    devices_skipped_ += base_.device_count();
    return result;
  }
  simulator_.reconverge();
  reconverge_timer.stop();

  // A device the reconvergence did not touch still serves its baseline
  // table; a touched one diverges unless its new table equals the
  // baseline's rule for rule (the compare stops at the first difference),
  // and is then rechecked against it. Each new table is programmed (the
  // emulator runs without device faults) outside the simulator's cache,
  // into its worker's recycled rules, and released after its recheck, so a
  // check never holds every changed device's baseline and new tables at
  // once; rollback() puts the baseline handles back in the cache.
  const std::vector<topo::DeviceId> changed = simulator_.take_changed_devices();
  const bool timed = diff_ns_ != nullptr;
  std::vector<std::uint64_t> diff_ns(timed ? changed.size() : 0);
  std::vector<std::uint8_t> divergent(changed.size(), 0);
  std::vector<std::vector<Violation>> post(changed.size());
  const std::size_t checked_before = tally_.contracts_checked.load();
  const std::uint64_t verify_ns_before = tally_.verify_ns.load();
  exec::for_each(threads_, changed.size(), [&](unsigned worker, std::size_t i) {
    const topo::DeviceId device = changed[i];
    const auto start = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
    const Baseline& base = baseline_[device];
    std::vector<routing::Rule>& scratch = fib_scratch_[worker];
    routing::ForwardingTable table = routing::program_fib(
        simulator_.rib(device), nullptr, device, std::move(scratch));
    const bool same = table == *base.table;
    if (timed) {
      diff_ns[i] = static_cast<std::uint64_t>(
          (std::chrono::steady_clock::now() - start).count());
    }
    if (!same) {
      divergent[i] = 1;
      post[i] = step(worker).recheck(device, plan_->contracts_for(device),
                                     *base.table, base.violations, table,
                                     false);
    }
    scratch = std::move(table).release();
  });
  const std::size_t revalidated = static_cast<std::size_t>(
      std::count(divergent.begin(), divergent.end(), 1));
  devices_revalidated_ += revalidated;
  devices_skipped_ += base_.device_count() - revalidated;
  const std::size_t rechecked =
      tally_.contracts_checked.load() - checked_before;
  contracts_rechecked_ += rechecked;
  if (timed) {
    diff_ns_->observe(std::accumulate(diff_ns.begin(), diff_ns.end(),
                                      std::uint64_t{0}));
    verify_ns_->observe(tally_.verify_ns.load() - verify_ns_before);
    contracts_rechecked_total_->inc(rechecked);
  }

  for (std::size_t i = 0; i < changed.size(); ++i) {
    if (divergent[i] == 0) continue;
    const std::vector<Violation>& base = baseline_[changed[i]].violations;
    result.post_change_violations += post[i].size();
    result.post_change_violations -= base.size();
    // Reported in DatacenterValidator::run()'s order, as PrecheckPipeline
    // reports them.
    std::sort(post[i].begin(), post[i].end(), report_order);
    for (Violation& violation : post[i]) {
      if (std::find(base.begin(), base.end(), violation) == base.end()) {
        result.introduced.push_back(std::move(violation));
      }
    }
  }
  result.approved = result.introduced.empty();

  obs::ScopedTimer rollback_timer(rollback_ns_);
  emulated_ = base_;
  simulator_.rollback();
  return result;
}

}  // namespace dcv::rcdc
