#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "topology/clos_builder.hpp"

namespace dcv::rcdc {

/// Configuration of the error-burndown operations simulation behind
/// Figure 6.
struct BurndownConfig {
  topo::ClosParams datacenter{.clusters = 4,
                              .tors_per_cluster = 4,
                              .leaves_per_cluster = 4,
                              .spines_per_plane = 2,
                              .regional_spines = 4};
  int days = 40;
  /// RCDC starts detecting (and thus remediation starts) on this day; the
  /// paper's graph "documents a clear downward trend of errors since RCDC
  /// was deployed near day 5".
  int rcdc_deploy_day = 5;
  /// Latent errors present when monitoring begins (the paper: "initial
  /// reports identified a few hundred latent bugs" — scaled to the
  /// simulated datacenter size).
  std::size_t initial_faults = 60;
  /// Expected new faults arriving per day (Poisson).
  double fault_arrival_rate = 1.5;
  /// Daily remediation capacity. High-risk errors are fixed first
  /// (§2.6.4: "the high priority errors are remediated before addressing
  /// the low-priority errors").
  std::size_t high_risk_capacity_per_day = 8;
  std::size_t low_risk_capacity_per_day = 4;
  std::uint64_t seed = 42;
  /// Optional metrics sink (must outlive the call): the daily RCDC runs
  /// record their per-device step (dcv_pipeline_* / dcv_incremental_*),
  /// dcv_verifier_* and dcv_bgp_* series here.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One day of the simulated operation.
struct BurndownDay {
  int day = 0;
  std::size_t outstanding_high = 0;
  std::size_t outstanding_low = 0;
  /// Proportions relative to the peak total error count — the y-axis of
  /// Figure 6 ("relative proportion of the high-risk and low-risk errors to
  /// total number of errors").
  double high_fraction = 0.0;
  double low_fraction = 0.0;
  /// Contract violations RCDC reported this day (0 before deployment).
  std::size_t violations_detected = 0;
  std::size_t remediated_today = 0;
};

/// Simulates datacenter operations around RCDC deployment: faults arrive
/// continuously; before the deploy day nothing is detected and errors
/// accumulate as latent risk; from the deploy day on, RCDC validates the
/// (simulated) network daily, alerts fire, and remediation burns errors
/// down in risk order. Fault risk follows the §2.6.4 rubric (servers
/// impacted + additional faults to impact).
[[nodiscard]] std::vector<BurndownDay> simulate_burndown(
    const BurndownConfig& config);

}  // namespace dcv::rcdc
