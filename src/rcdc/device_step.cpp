#include "rcdc/device_step.hpp"

#include <algorithm>
#include <utility>

namespace dcv::rcdc {

StepMetrics::StepMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const auto devices = [registry](const char* result) {
    return &registry->counter("dcv_pipeline_devices_total",
                              "Devices processed, by pull result",
                              {{"result", result}});
  };
  fetch_latency_ns = &registry->histogram(
      "dcv_pipeline_fetch_latency_ns",
      "Per-device table acquisition wall time (scaled sleep + pull)");
  validate_latency_ns = &registry->histogram(
      "dcv_pipeline_validate_latency_ns", "Per-device contract validation time");
  devices_fresh = devices("fresh");
  devices_stale = devices("stale");
  devices_failed = devices("failed");
  retries_total = &registry->counter(
      "dcv_pipeline_retries_total",
      "Extra pull attempts beyond the first, summed over devices");
  breaker_opens_total = &registry->counter(
      "dcv_pipeline_breaker_opens_total",
      "Circuit-breaker open transitions observed by pullers");
  violations_total = &registry->counter("dcv_pipeline_violations_total",
                                        "Contract violations found");
  coverage = &registry->gauge(
      "dcv_pipeline_coverage",
      "Fraction of devices that produced a table in the latest cycle");
  fingerprint_ns = &registry->histogram(
      "dcv_incremental_fingerprint_ns",
      "Time to fingerprint one device's forwarding table");
  devices_revalidated = &registry->counter(
      "dcv_incremental_devices_revalidated_total",
      "Devices verified because no cached verdict matched their table");
  devices_skipped = &registry->counter(
      "dcv_incremental_devices_skipped_total",
      "Devices whose cached verdicts were reused (table unchanged)");
}

namespace {

void bump(obs::Counter* counter, std::size_t n = 1) {
  if (counter != nullptr) counter->inc(n);
}

}  // namespace

DeviceStep::DeviceStep(const VerifierFactory& factory, StepTally& tally,
                       const StepMetrics& metrics, VerdictCache* cache,
                       obs::TraceRing* trace)
    : tally_(&tally),
      metrics_(&metrics),
      cache_(cache),
      trace_(trace),
      verifier_(factory()) {}

bool DeviceStep::account(const FetchOutcome& outcome) {
  if (outcome.attempts > 1) {
    tally_->retries.fetch_add(outcome.attempts - 1, std::memory_order_relaxed);
    bump(metrics_->retries_total, outcome.attempts - 1);
  }
  if (outcome.breaker_tripped) {
    tally_->breaker_opens.fetch_add(1, std::memory_order_relaxed);
    bump(metrics_->breaker_opens_total);
  }
  if (!outcome.has_table()) {
    tally_->devices_failed.fetch_add(1, std::memory_order_relaxed);
    bump(metrics_->devices_failed);
    return false;
  }
  if (outcome.stale) {
    tally_->devices_stale.fetch_add(1, std::memory_order_relaxed);
    bump(metrics_->devices_stale);
  } else {
    bump(metrics_->devices_fresh);
  }
  return true;
}

std::vector<Violation> DeviceStep::check(topo::DeviceId device,
                                         std::span<const Contract> contracts,
                                         const routing::FibPtr& table,
                                         bool degraded) {
  obs::Span verify_span("verify", metrics_->validate_latency_ns, trace_);
  std::vector<Violation> violations =
      verifier_->check(*table, contracts, device);
  finish(verify_span, contracts.size(), violations, degraded);
  return violations;
}

std::vector<Violation> DeviceStep::recheck(
    topo::DeviceId device, std::span<const Contract> contracts,
    const routing::ForwardingTable& before,
    const std::vector<Violation>& before_violations,
    const routing::ForwardingTable& after, bool degraded) {
  obs::Span verify_span("verify", metrics_->validate_latency_ns, trace_);
  // A default contract reads only the default rule, and a specific one
  // exactly the rules related to its prefix (nested in it or containing
  // it): the rules whose address range meets its own. A changed default
  // route meets every range, so it touches every contract.
  const routing::Rule* const old_default = before.default_route();
  const routing::Rule* const new_default = after.default_route();
  const bool default_changed =
      old_default == nullptr || new_default == nullptr
          ? old_default != new_default
          : *old_default != *new_default;
  touched_.clear();
  if (!default_changed) {
    changed_.clear();
    routing::diff_rules(before, after, changed_);
    // The changed rules' ranges by start address. Prefixes nest or are
    // disjoint, so a range inside the last one kept adds nothing and the
    // kept ones are disjoint and sorted by end too.
    ranges_.clear();
    for (const net::Prefix& prefix : changed_) {
      ranges_.push_back(net::AddressInterval::from_prefix(prefix));
    }
    std::sort(ranges_.begin(), ranges_.end(),
              [](const net::AddressInterval& a, const net::AddressInterval& b) {
                return a.lo < b.lo || (a.lo == b.lo && b.hi < a.hi);
              });
    std::size_t distinct = 0;
    for (const net::AddressInterval& range : ranges_) {
      if (distinct == 0 || ranges_[distinct - 1].hi < range.lo) {
        ranges_[distinct++] = range;
      }
    }
    ranges_.resize(distinct);
    for (std::size_t i = 0; i < contracts.size(); ++i) {
      if (contracts[i].kind == ContractKind::kDefault) continue;
      const auto range = net::AddressInterval::from_prefix(contracts[i].prefix);
      const auto meets = std::lower_bound(
          ranges_.begin(), ranges_.end(), range,
          [](const net::AddressInterval& a, const net::AddressInterval& b) {
            return a.hi < b.lo;
          });
      if (meets != ranges_.end() && !(range.hi < meets->lo)) {
        touched_.push_back(i);
      }
    }
  }

  std::size_t checked = default_changed ? contracts.size() : touched_.size();
  std::vector<Violation> violations;
  if (checked == contracts.size()) {
    violations = verifier_->check(after, contracts, device);
  } else {
    std::vector<Violation> fresh;
    if (!touched_.empty()) {
      // Copy-assignment into retained slots reuses their hop vectors.
      if (subset_.size() < touched_.size()) subset_.resize(touched_.size());
      for (std::size_t k = 0; k < touched_.size(); ++k) {
        subset_[k] = contracts[touched_[k]];
      }
      fresh = verifier_->check(
          after, std::span<const Contract>(subset_.data(), touched_.size()),
          device);
    }
    // The verifier reports contract by contract, in contract order: merge
    // the two lists by walking the contracts once.
    violations.reserve(before_violations.size() + fresh.size());
    auto kept = before_violations.begin();
    auto rechecked = fresh.begin();
    auto next_touched = touched_.begin();
    for (std::size_t i = 0; i < contracts.size(); ++i) {
      const Contract& contract = contracts[i];
      const auto kept_end = std::find_if(
          kept, before_violations.end(),
          [&contract](const Violation& v) { return v.contract != contract; });
      if (next_touched != touched_.end() && *next_touched == i) {
        ++next_touched;
        for (; rechecked != fresh.end() && rechecked->contract == contract;
             ++rechecked) {
          violations.push_back(std::move(*rechecked));
        }
      } else {
        violations.insert(violations.end(), kept, kept_end);
      }
      kept = kept_end;
    }
    if (kept != before_violations.end()) {
      // The earlier verdict was not in the verifier's order, so its
      // violations cannot be matched to contracts: check in full.
      checked = contracts.size();
      violations = verifier_->check(after, contracts, device);
    }
  }
  finish(verify_span, checked, violations, degraded);
  return violations;
}

const std::vector<Violation>& DeviceStep::verify(
    topo::DeviceId device, std::span<const Contract> contracts,
    const routing::FibPtr& table, bool degraded) {
  if (cache_ == nullptr) {
    return fresh_ = check(device, contracts, table, degraded);
  }
  const VerdictCache::Lookup hit =
      cache_->lookup(device, table, metrics_->fingerprint_ns);
  if (hit.violations == nullptr) {
    const routing::FibPtr& previous = cache_->table(device);
    return cache_->store(
        device, table, hit.fingerprint,
        previous == nullptr
            ? check(device, contracts, table, degraded)
            : recheck(device, contracts, *previous,
                      cache_->violations(device), *table, degraded));
  }
  // The "cached" vs "verify" span tells the two outcomes apart in traces.
  obs::Span cached_span("cached", nullptr, trace_);
  if (hit.fingerprint != 0) cache_->adopt(device, table);
  tally_->devices_skipped.fetch_add(1, std::memory_order_relaxed);
  bump(metrics_->devices_skipped);
  count(*hit.violations, degraded);
  return *hit.violations;
}

void DeviceStep::finish(obs::Span& verify_span, std::size_t contracts_checked,
                        const std::vector<Violation>& violations,
                        bool degraded) {
  tally_->verify_ns.fetch_add(
      static_cast<std::uint64_t>(verify_span.stop().count()),
      std::memory_order_relaxed);
  tally_->contracts_checked.fetch_add(contracts_checked,
                                      std::memory_order_relaxed);
  tally_->devices_revalidated.fetch_add(1, std::memory_order_relaxed);
  bump(metrics_->devices_revalidated);
  count(violations, degraded);
}

void DeviceStep::count(const std::vector<Violation>& violations,
                       bool degraded) {
  tally_->violations.fetch_add(violations.size(), std::memory_order_relaxed);
  if (!violations.empty()) bump(metrics_->violations_total, violations.size());
  if (degraded) {
    tally_->violations_degraded.fetch_add(violations.size(),
                                          std::memory_order_relaxed);
  }
}

}  // namespace dcv::rcdc
