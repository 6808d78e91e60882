#include "rcdc/validator.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "exec/executor.hpp"
#include "obs/span.hpp"
#include "rcdc/linear_verifier.hpp"
#include "rcdc/smt_verifier.hpp"
#include "rcdc/trie_verifier.hpp"

namespace dcv::rcdc {

namespace {

/// Decorator recording check latency and contract throughput for any
/// engine, labeled by engine name.
class InstrumentedVerifier final : public Verifier {
 public:
  InstrumentedVerifier(std::unique_ptr<Verifier> inner,
                       obs::Histogram* check_ns, obs::Counter* contracts)
      : inner_(std::move(inner)), check_ns_(check_ns), contracts_(contracts) {}

  [[nodiscard]] std::vector<Violation> check(
      const routing::ForwardingTable& fib, std::span<const Contract> contracts,
      topo::DeviceId device) override {
    obs::ScopedTimer timer(check_ns_);
    auto violations = inner_->check(fib, contracts, device);
    timer.stop();
    contracts_->inc(contracts.size());
    return violations;
  }

 private:
  std::unique_ptr<Verifier> inner_;
  obs::Histogram* check_ns_;
  obs::Counter* contracts_;
};

/// Wraps `make_inner` so every produced verifier reports under
/// {engine=<name>}. The registry outlives the factory by contract.
VerifierFactory instrumented_factory(
    obs::MetricsRegistry* metrics, const char* engine,
    std::function<std::unique_ptr<Verifier>(obs::MetricsRegistry*)>
        make_inner) {
  if (metrics == nullptr) {
    return [make_inner = std::move(make_inner)] {
      return make_inner(nullptr);
    };
  }
  obs::Histogram* check_ns = &metrics->histogram(
      "dcv_verifier_check_ns", "Per-device contract check time, by engine",
      {{"engine", engine}});
  obs::Counter* contracts = &metrics->counter(
      "dcv_verifier_contracts_checked_total",
      "Contracts checked, by engine", {{"engine", engine}});
  return [metrics, check_ns, contracts, make_inner = std::move(make_inner)] {
    return std::make_unique<InstrumentedVerifier>(make_inner(metrics),
                                                  check_ns, contracts);
  };
}

}  // namespace

DatacenterValidator::DatacenterValidator(const topo::MetadataService& metadata,
                                         const FibSource& fibs,
                                         VerifierFactory verifier_factory,
                                         ContractGenOptions options,
                                         obs::MetricsRegistry* metrics)
    : metadata_(&metadata),
      fibs_(&fibs),
      verifier_factory_(std::move(verifier_factory)),
      generator_(metadata, options),
      metrics_(metrics) {}

ValidationSummary DatacenterValidator::run(unsigned threads) const {
  std::vector<topo::DeviceId> devices;
  devices.reserve(metadata_->topology().device_count());
  for (const topo::Device& d : metadata_->topology().devices()) {
    devices.push_back(d.id);
  }
  return run(devices, threads);
}

ValidationSummary DatacenterValidator::run(
    std::span<const topo::DeviceId> devices, unsigned threads) const {
  const auto start = std::chrono::steady_clock::now();

  // One immutable plan pointer for the whole run: every worker reads the
  // same precompiled contract spans, and a concurrent topology change can
  // at worst affect the *next* run.
  const ContractPlanPtr plan = generator_.plan();

  StepTally tally;
  std::vector<std::optional<DeviceStep>> steps(std::max(1u, threads));
  std::vector<std::vector<Violation>> found(devices.size());

  // Each device is validated in isolation: fetch FIB, check its contracts,
  // discard. Nothing global is ever built, and a failed fetch fails only
  // its own device.
  exec::for_each(threads, devices.size(), [&](unsigned worker, std::size_t i) {
    const topo::DeviceId device = devices[i];
    const std::span<const Contract> contracts = plan->contracts_for(device);
    if (contracts.empty()) return;
    std::optional<DeviceStep>& step = steps[worker];
    if (!step) step.emplace(verifier_factory_, tally, metrics_);
    obs::ScopedTimer fetch_timer(metrics_.fetch_latency_ns);
    const FetchOutcome outcome = fibs_->try_fetch(device);
    fetch_timer.stop();
    if (!step->account(outcome)) return;
    found[i] =
        step->check(device, contracts, outcome.table, outcome.degraded());
  });

  ValidationSummary summary;
  summary.devices_checked = devices.size();
  tally.copy_to(summary);
  for (std::vector<Violation>& violations : found) {
    summary.violations.insert(summary.violations.end(),
                              std::make_move_iterator(violations.begin()),
                              std::make_move_iterator(violations.end()));
  }
  std::sort(summary.violations.begin(), summary.violations.end(),
            report_order);
  summary.elapsed = std::chrono::steady_clock::now() - start;
  if (metrics_.coverage != nullptr) metrics_.coverage->set(summary.coverage());
  return summary;
}

bool report_order(const Violation& a, const Violation& b) {
  if (a.device != b.device) return a.device < b.device;
  if (a.contract.prefix != b.contract.prefix) {
    return a.contract.prefix < b.contract.prefix;
  }
  return a.rule_prefix < b.rule_prefix;
}

VerifierFactory make_trie_verifier_factory(obs::MetricsRegistry* metrics) {
  return instrumented_factory(
      metrics, "trie", [](obs::MetricsRegistry* registry) {
        return std::make_unique<TrieVerifier>(
            registry == nullptr
                ? nullptr
                : &registry->histogram(
                      "dcv_verifier_rules_walked",
                      "Candidate rules walked per specific contract",
                      {{"engine", "trie"}}));
      });
}

VerifierFactory make_smt_verifier_factory(obs::MetricsRegistry* metrics) {
  return instrumented_factory(metrics, "smt", [](obs::MetricsRegistry*) {
    return std::make_unique<SmtVerifier>();
  });
}

VerifierFactory make_linear_verifier_factory(obs::MetricsRegistry* metrics) {
  return instrumented_factory(metrics, "linear", [](obs::MetricsRegistry*) {
    return std::make_unique<LinearVerifier>();
  });
}

VerifierFactory make_verifier_factory(std::string_view name,
                                      obs::MetricsRegistry* metrics) {
  if (name == "trie") return make_trie_verifier_factory(metrics);
  if (name == "smt") return make_smt_verifier_factory(metrics);
  if (name == "linear") return make_linear_verifier_factory(metrics);
  throw std::invalid_argument("unknown verifier '" + std::string(name) +
                              "' (want trie, smt or linear)");
}

}  // namespace dcv::rcdc
