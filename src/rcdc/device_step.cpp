#include "rcdc/device_step.hpp"

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
  tally_->verify_ns.fetch_add(
      static_cast<std::uint64_t>(verify_span.stop().count()),
      std::memory_order_relaxed);
  tally_->contracts_checked.fetch_add(contracts.size(),
                                      std::memory_order_relaxed);
  tally_->devices_revalidated.fetch_add(1, std::memory_order_relaxed);
  bump(metrics_->devices_revalidated);
  count(violations, degraded);
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
    return cache_->store(device, table, hit.fingerprint,
                         check(device, contracts, table, degraded));
  }
  // The "cached" vs "verify" span tells the two outcomes apart in traces.
  obs::Span cached_span("cached", nullptr, trace_);
  if (hit.fingerprint != 0) cache_->adopt(device, table);
  tally_->devices_skipped.fetch_add(1, std::memory_order_relaxed);
  bump(metrics_->devices_skipped);
  count(*hit.violations, degraded);
  return *hit.violations;
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
