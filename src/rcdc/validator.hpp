#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "rcdc/contract_gen.hpp"
#include "rcdc/device_step.hpp"
#include "rcdc/fib_source.hpp"
#include "topology/metadata.hpp"

namespace dcv::rcdc {

/// Result of validating a whole datacenter.
struct ValidationSummary {
  std::size_t devices_checked = 0;
  std::size_t contracts_checked = 0;
  /// Devices whose fetch produced no table (retries exhausted without a
  /// stale fallback, or skipped by an open circuit breaker): excluded from
  /// the violation report, counted against coverage.
  std::size_t devices_failed = 0;
  /// Devices validated against a stale cached table.
  std::size_t devices_stale = 0;
  /// Extra pull attempts beyond the first, summed over all devices.
  std::size_t retries = 0;
  /// Circuit-breaker open transitions observed during the run.
  std::size_t breaker_opens = 0;
  /// Violations found on degraded tables (stale or truncated/corrupted);
  /// they also appear in `violations` but warrant fresh-pull confirmation.
  std::size_t violations_degraded = 0;
  std::vector<Violation> violations;
  std::chrono::nanoseconds elapsed{0};

  /// Fraction of devices that produced a table (fresh or stale).
  [[nodiscard]] double coverage() const {
    return devices_checked == 0
               ? 1.0
               : static_cast<double>(devices_checked - devices_failed) /
                     static_cast<double>(devices_checked);
  }
};

/// Validates every device of a datacenter against its generated contracts.
///
/// This is the embodiment of the paper's local-validation claim: each
/// device is fetched, contract-generated, and verified *independently* — no
/// global snapshot is ever materialized — so work parallelizes trivially
/// across `threads` workers and memory stays O(1 device) per worker
/// regardless of datacenter size (§2.4: "we can parallelize validation and
/// thus scale").
class DatacenterValidator {
 public:
  /// `metrics`, when non-null (must outlive the validator), receives the
  /// per-device step's series (StepMetrics: dcv_pipeline_* fetch/validate
  /// latency, per-result device, retry, breaker, violation and coverage
  /// series, plus dcv_incremental_devices_revalidated_total) from every
  /// run().
  DatacenterValidator(const topo::MetadataService& metadata,
                      const FibSource& fibs, VerifierFactory verifier_factory,
                      ContractGenOptions options = {},
                      obs::MetricsRegistry* metrics = nullptr);

  /// Runs validation over all devices (or a subset) with the given level of
  /// parallelism. Violations are reported in device-id order.
  ///
  /// Fetches go through FibSource::try_fetch: a device whose pull fails is
  /// counted in devices_failed and skipped — the run completes with partial
  /// coverage instead of propagating the failure.
  [[nodiscard]] ValidationSummary run(unsigned threads = 1) const;
  [[nodiscard]] ValidationSummary run(std::span<const topo::DeviceId> devices,
                                      unsigned threads) const;

 private:
  const topo::MetadataService* metadata_;
  const FibSource* fibs_;
  VerifierFactory verifier_factory_;
  ContractGenerator generator_;
  StepMetrics metrics_;
};

/// The order DatacenterValidator::run() reports violations in: by device,
/// then contract prefix, then violating rule prefix.
[[nodiscard]] bool report_order(const Violation& a, const Violation& b);

/// Convenience factories for the three engines. When `metrics` is non-null
/// (it must outlive every verifier the factory creates), each produced
/// verifier records dcv_verifier_check_ns and
/// dcv_verifier_contracts_checked_total labeled {engine="trie"|"smt"|
/// "linear"}; the trie engine additionally samples
/// dcv_verifier_rules_walked{engine="trie"} per specific contract.
[[nodiscard]] VerifierFactory make_trie_verifier_factory(
    obs::MetricsRegistry* metrics = nullptr);

/// Convenience factory for the Z3 engine.
[[nodiscard]] VerifierFactory make_smt_verifier_factory(
    obs::MetricsRegistry* metrics = nullptr);

/// Convenience factory for the linear-scan ablation baseline.
[[nodiscard]] VerifierFactory make_linear_verifier_factory(
    obs::MetricsRegistry* metrics = nullptr);

/// The engine names make_verifier_factory knows.
inline constexpr std::array<std::string_view, 3> kVerifierNames = {
    "trie", "smt", "linear"};

/// The factory of the engine called `name`, one of kVerifierNames; throws
/// std::invalid_argument for any other name.
[[nodiscard]] VerifierFactory make_verifier_factory(
    std::string_view name, obs::MetricsRegistry* metrics = nullptr);

}  // namespace dcv::rcdc
