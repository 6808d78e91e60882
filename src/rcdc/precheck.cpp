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

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      (std::chrono::steady_clock::now() - start).count());
}

}  // namespace

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
      diff_scratch_(threads_) {
  if (metrics != nullptr) {
    const auto phase = [metrics](const char* name) {
      return &metrics->histogram(
          "dcv_precheck_phase_ns",
          "Per-change precheck time, by phase: reconverge (apply + warm "
          "reconverge), diff (the changed rules compared with the "
          "baseline's, the new table patched in over the baseline and put "
          "back) and verify (delta recheck), each summed over the changed "
          "devices, and rollback (topology restore + undo log)",
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
  // validate everything, and keep every device's baseline table with its
  // verdict. The session owns these tables (the simulator never
  // materializes its own), so a check can patch a changed device's table
  // in place for its recheck and put it back.
  baseline_.resize(base_.device_count());
  exec::for_each(threads_, baseline_.size(), [&](unsigned worker,
                                                 std::size_t d) {
    const auto device = static_cast<topo::DeviceId>(d);
    Baseline& base = baseline_[d];
    base.table = std::make_shared<routing::ForwardingTable>(
        routing::program_fib(simulator_.rib(device), nullptr, device));
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

bool PrecheckSession::DiffScratch::collect(
    const routing::Rib& rib, const routing::ForwardingTable& baseline,
    const std::vector<net::Prefix>& candidates) {
  prefixes.clear();
  patches.clear();
  for (const net::Prefix& prefix : candidates) {
    const routing::RibEntry* entry = rib.find(prefix);
    const routing::Rule* old = baseline.find(prefix);
    const std::size_t k = prefixes.size();
    if (rules.size() == k) rules.emplace_back();
    if (entry != nullptr) {
      routing::assign_rule(rib, *entry, rules[k]);
      if (old != nullptr && *old == rules[k]) continue;
    } else if (old == nullptr) {
      continue;
    }
    prefixes.push_back(prefix);
    patches.push_back(entry != nullptr ? Patch::kReplace : Patch::kRemove);
  }
  return !prefixes.empty();
}

void PrecheckSession::DiffScratch::patch(routing::ForwardingTable& table) {
  for (std::size_t k = 0; k < prefixes.size(); ++k) {
    if (patches[k] == Patch::kRemove) {
      table.extract(prefixes[k], rules[k]);
    } else if (!table.exchange(rules[k])) {
      patches[k] = Patch::kInsert;
    }
  }
}

void PrecheckSession::DiffScratch::unpatch(routing::ForwardingTable& table) {
  for (std::size_t k = 0; k < prefixes.size(); ++k) {
    if (patches[k] == Patch::kInsert) {
      table.extract(prefixes[k], rules[k]);
    } else {
      table.exchange(rules[k]);
    }
  }
}

DeviceStep& PrecheckSession::step(unsigned worker) {
  std::optional<DeviceStep>& slot = steps_[worker];
  if (!slot) slot.emplace(verifier_factory_, tally_, step_metrics_);
  return *slot;
}

std::vector<PrecheckResult> PrecheckSession::check_rollout(
    const std::vector<NetworkChange>& changes) {
  std::vector<PrecheckResult> results;
  for (const NetworkChange& change : changes) {
    results.push_back(check(change));
    if (!results.back().approved) break;
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
    // Fabric-shape changes invalidate the per-device baseline mapping.
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
  // table. A touched one lists the prefixes whose RIB entry changed; the
  // rule of each (the emulator runs without device faults) is compared
  // with the baseline's, and the device diverges iff one differs. Its
  // baseline table is then patched with exactly those rules, rechecked
  // from them, and put back.
  const std::vector<topo::DeviceId> changed = simulator_.take_changed_devices();
  const bool timed = diff_ns_ != nullptr;
  const auto now = [timed] {
    return timed ? std::chrono::steady_clock::now()
                 : std::chrono::steady_clock::time_point{};
  };
  std::vector<std::uint64_t> diff_ns(timed ? changed.size() : 0);
  std::vector<std::uint8_t> divergent(changed.size(), 0);
  std::vector<std::vector<Violation>> post(changed.size());
  const std::size_t checked_before = tally_.contracts_checked.load();
  const std::uint64_t verify_ns_before = tally_.verify_ns.load();
  exec::for_each(threads_, changed.size(), [&](unsigned worker, std::size_t i) {
    const topo::DeviceId device = changed[i];
    auto start = now();
    const std::vector<net::Prefix>* prefixes =
        simulator_.changed_prefixes(device);
    if (prefixes == nullptr) {
      // Only a cold run or a FIB-fault flip changes a whole table, and the
      // session refuses reshaping changes and emulates no faults.
      throw std::logic_error("precheck session: whole-table change");
    }
    Baseline& base = baseline_[device];
    DiffScratch& scratch = diff_scratch_[worker];
    if (scratch.collect(simulator_.rib(device), *base.table, *prefixes)) {
      divergent[i] = 1;
      scratch.patch(*base.table);
      try {
        if (timed) diff_ns[i] = elapsed_ns(start);
        post[i] = step(worker).recheck(device, plan_->contracts_for(device),
                                       base.violations, *base.table,
                                       scratch.prefixes, false);
      } catch (...) {
        scratch.unpatch(*base.table);
        throw;
      }
      start = now();
      scratch.unpatch(*base.table);
    }
    if (timed) diff_ns[i] += elapsed_ns(start);
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
    // Reported in DatacenterValidator::run()'s order: `changed` is sorted
    // by device, and each device's violations by report_order.
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
