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
    const std::vector<Violation>& before_violations,
    const routing::ForwardingTable& after, std::span<const net::Prefix> changed,
    bool degraded) {
  obs::Span verify_span("verify", metrics_->validate_latency_ns, trace_);
  // A default contract reads only the default rule, and a specific one
  // exactly the rules related to its prefix (nested in it or containing
  // it): the rules whose address range meets its own. A changed default
  // route meets every range, so it touches every contract.
  const bool default_changed = std::ranges::any_of(
      changed, [](const net::Prefix& prefix) { return prefix.is_default(); });
  touched_.clear();
  if (!default_changed) {
    // The changed rules' ranges by start address. Prefixes nest or are
    // disjoint, so a range inside the last one kept adds nothing and the
    // kept ones are disjoint.
    ranges_.clear();
    for (const net::Prefix& prefix : changed) {
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
    // The specific contracts follow the default ones by ascending prefix.
    // One that meets a range either starts inside it — one run, found by
    // one search — or contains it, and then starts at one of the range's
    // truncations below it: one search per distinct truncated start.
    const auto specific = std::partition_point(
        contracts.begin(), contracts.end(), [](const Contract& contract) {
          return contract.kind == ContractKind::kDefault;
        });
    const auto starts_below = [](const Contract& contract,
                                 std::uint32_t start) {
      return contract.prefix.network().value() < start;
    };
    const auto touch = [&](auto it) {
      touched_.push_back(static_cast<std::size_t>(it - contracts.begin()));
    };
    for (const net::AddressInterval& range : ranges_) {
      auto below = std::lower_bound(specific, contracts.end(),
                                    range.lo.value(), starts_below);
      for (auto it = below;
           it != contracts.end() && !(range.hi < it->prefix.network());
           ++it) {
        touch(it);
      }
      for (std::uint32_t start = range.lo.value();
           start != 0 && below != specific;) {
        start &= start - 1;  // the next shorter truncation that starts lower
        const auto first =
            std::lower_bound(specific, below, start, starts_below);
        for (auto it = first;
             it != below && it->prefix.network().value() == start; ++it) {
          if (net::AddressInterval::from_prefix(it->prefix).contains(range)) {
            touch(it);
          }
        }
        below = first;
      }
    }
    std::sort(touched_.begin(), touched_.end());
    touched_.erase(std::unique(touched_.begin(), touched_.end()),
                   touched_.end());
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
    // the two lists by contract index. Each run of kept violations finds
    // its contract by a forward search in check order; a run that finds
    // none means the earlier verdict was not in the verifier's order, and
    // then its violations cannot be matched to contracts: check in full.
    violations.reserve(before_violations.size() + fresh.size());
    auto rechecked = fresh.begin();
    auto next_touched = touched_.begin();
    const auto take_rechecked = [&](std::size_t end) {
      for (; next_touched != touched_.end() && *next_touched < end;
           ++next_touched) {
        const Contract& contract = contracts[*next_touched];
        for (; rechecked != fresh.end() && rechecked->contract == contract;
             ++rechecked) {
          violations.push_back(std::move(*rechecked));
        }
      }
    };
    auto from = contracts.begin();
    auto kept = before_violations.begin();
    while (kept != before_violations.end()) {
      const Contract& contract = kept->contract;
      const auto kept_end = std::find_if(
          kept, before_violations.end(),
          [&contract](const Violation& v) { return v.contract != contract; });
      auto it = std::lower_bound(from, contracts.end(), contract,
                                 in_check_order);
      while (it != contracts.end() && !in_check_order(contract, *it) &&
             *it != contract) {
        ++it;
      }
      if (it == contracts.end() || *it != contract) break;
      const auto index = static_cast<std::size_t>(it - contracts.begin());
      take_rechecked(index);
      if (next_touched != touched_.end() && *next_touched == index) {
        take_rechecked(index + 1);  // rechecked: the kept run goes
      } else {
        violations.insert(violations.end(), kept, kept_end);
      }
      from = it + 1;
      kept = kept_end;
    }
    take_rechecked(contracts.size());
    if (kept != before_violations.end()) {
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
    if (previous == nullptr) {
      return cache_->store(device, table, hit.fingerprint,
                           check(device, contracts, table, degraded));
    }
    // A changed default route touches every contract, so the other changed
    // rules need not be listed.
    const routing::Rule* const old_default = previous->default_route();
    const routing::Rule* const new_default = table->default_route();
    changed_.clear();
    if (old_default == nullptr || new_default == nullptr
            ? old_default != new_default
            : *old_default != *new_default) {
      changed_.push_back(net::Prefix::default_route());
    } else {
      routing::diff_rules(*previous, *table, changed_);
    }
    return cache_->store(device, table, hit.fingerprint,
                         recheck(device, contracts, cache_->violations(device),
                                 *table, changed_, degraded));
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
