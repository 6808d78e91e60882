// drift: steady monitoring while single ToRs fault and get repaired
// (§2.6.2). One op is a device fault or its repair: FaultInjector ->
// BgpSimulator::reconverge() -> incremental MonitoringPipeline::run_cycle()
// -> verdict. Between ops the pipeline runs one cycle with no change, the
// check class, whose verdict must not move.
#include <algorithm>
#include <array>
#include <memory>
#include <random>
#include <string>

#include "harness.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/pipeline.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/faults.hpp"
#include "topology/metadata.hpp"

namespace dcbench {

namespace {

namespace topo = dcv::topo;
namespace routing = dcv::routing;
namespace rcdc = dcv::rcdc;

/// 544 devices: 24 clusters of 16 ToRs and 6 leaves, 2 spines per plane,
/// 4 regional spines.
topo::ClosParams fabric() {
  return topo::ClosParams{.clusters = 24,
                          .tors_per_cluster = 16,
                          .leaves_per_cluster = 6,
                          .spines_per_plane = 2,
                          .regional_spines = 4};
}

constexpr unsigned kBgpThreads = 2;
// One puller and one validator: with two of each the cycle keeps every
// core of a 4-core host busy, and its median then follows the host's steal
// time (runs of one build spread by 20%+, against about 5% with one each).
constexpr unsigned kPullers = 1;
constexpr unsigned kValidators = 1;
constexpr int kWarmupPairs = 8;

// §2.6.2's FIB-programming and policy faults; each leaves the faulted ToR
// in violation of its default-route contract.
constexpr std::array kFaultKinds = {
    topo::DeviceFaultKind::kEcmpSingleNextHop,
    topo::DeviceFaultKind::kRibFibInconsistency,
    topo::DeviceFaultKind::kRejectDefaultRoute,
};

/// Sums one histogram over the primary ops only (the check cycles between
/// them observe the same series).
class OpSum {
 public:
  OpSum() = default;
  OpSum(const dcv::obs::MetricsRegistry* registry, std::string_view name,
        const dcv::obs::Labels& labels = {})
      : window_(registry, name, labels) {}

  void begin() { window_.start(); }
  void end() {
    sum_ += window_.sum();
    count_ += window_.count();
  }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ == 0.0 ? 0.0 : sum_ / count_;
  }

 private:
  HistogramWindow window_;
  double sum_ = 0.0;
  double count_ = 0.0;
};

class Drift final : public Workload {
 public:
  Drift(std::uint64_t seed, Hooks hooks, Tracer& tracer, Measurement& out)
      : topology_(topo::build_clos(fabric())),
        metadata_(topology_),
        injector_(topology_, seed),
        rng_(seed),
        metrics_(hooks.metrics) {
    {
      Tracer::Span span(tracer, "routing.converge");
      simulator_ = std::make_unique<routing::BgpSimulator>(
          topology_, &injector_, hooks.metrics,
          routing::BgpSimOptions{.threads = kBgpThreads});
      converge_ms_ = span.stop();
    }
    (void)simulator_->take_changed_devices();
    fibs_ = std::make_unique<rcdc::SimulatorFibSource>(*simulator_);
    pipeline_ = std::make_unique<rcdc::MonitoringPipeline>(
        metadata_, *fibs_, rcdc::make_trie_verifier_factory(hooks.metrics),
        rcdc::PipelineConfig{.puller_workers = kPullers,
                             .validator_workers = kValidators,
                             .time_scale = 0.0,
                             .seed = seed,
                             .incremental = true,
                             .metrics = hooks.metrics,
                             .trace = hooks.trace});
    pipeline_->set_alert_sink(
        [this](const rcdc::Violation& violation, const rcdc::RiskAssessment&) {
          flagged_.push_back(violation.device);
        });
    {
      Tracer::Span span(tracer, "rcdc.first_cycle");
      const rcdc::PipelineStats stats = cycle();
      baseline_ = stats.violations;
      contracts_ = stats.contracts_checked;
    }
    out.count(baseline_ == 0 ? ""
                             : std::to_string(baseline_) +
                                   " violations on the fault-free fabric");
    Measurement warmup;
    for (int i = 0; i < kWarmupPairs; ++i) fault_and_repair(tracer, warmup);
    out.add_counts(std::move(warmup));
  }

  void describe(Inputs& inputs) const override {
    inputs.emplace_back("fabric", fabric_json(fabric()));
    inputs.emplace_back("devices", json_number(topology_.device_count()));
    inputs.emplace_back("contracts", json_number(contracts_));
    inputs.emplace_back("fault_sites",
                        "\"seeded ToR x {ecmp-single-next-hop, "
                        "rib-fib-inconsistency, reject-default-route}\"");
  }

  void measure(Clock::time_point deadline, Tracer& tracer,
               Measurement& out) override {
    fetch_ = OpSum(metrics_, "dcv_pipeline_fetch_latency_ns");
    fingerprint_ = OpSum(metrics_, "dcv_incremental_fingerprint_ns");
    queue_wait_ = OpSum(metrics_, "dcv_pipeline_queue_wait_ns");
    verify_ = OpSum(metrics_, "dcv_verifier_check_ns", {{"engine", "trie"}});
    walked_ = OpSum(metrics_, "dcv_verifier_rules_walked");
    changed_ = fetched_ = revalidated_ = 0.0;
    while (Clock::now() < deadline) fault_and_repair(tracer, out);
  }

  void layers(const Tracer& tracer, Measurement& out) override {
    const std::size_t ops = out.latency_ms.size();
    const double n = static_cast<double>(std::max<std::size_t>(1, ops));
    add_op_split(tracer, ops,
                 {"topology.fault", "routing.reconverge", "rcdc.cycle"}, out);
    out.layers["routing.converge_ms"] = converge_ms_;
    out.layers["routing.changed_devices"] = changed_ / n;
    out.layers["rcdc.contracts"] = static_cast<double>(contracts_);
    out.layers["rcdc.devices_fetched"] = fetched_ / n;
    out.layers["rcdc.devices_revalidated"] = revalidated_ / n;
    out.layers["rcdc.useful_fetch_ratio"] =
        fetched_ == 0.0 ? 0.0 : changed_ / fetched_;
    out.layers["rcdc.fetch_ms"] = fetch_.sum() / 1e6 / n;
    out.layers["rcdc.fingerprint_ms"] = fingerprint_.sum() / 1e6 / n;
    out.layers["rcdc.queue_wait_ms"] = queue_wait_.sum() / 1e6 / n;
    out.layers["rcdc.verify_ms"] = verify_.sum() / 1e6 / n;
    out.layers["trie.rules_walked"] = walked_.mean();
  }

 private:
  rcdc::PipelineStats cycle() {
    flagged_.clear();
    return pipeline_->run_cycle();
  }

  [[nodiscard]] bool flagged(topo::DeviceId device) const {
    return std::find(flagged_.begin(), flagged_.end(), device) !=
           flagged_.end();
  }

  /// One primary op: `change` mutates the fabric, then reconverge and a
  /// monitoring cycle bring it to a verdict.
  template <typename Change>
  rcdc::PipelineStats op(Tracer& tracer, Measurement& out, Change change) {
    for (OpSum* sum : {&fetch_, &fingerprint_, &queue_wait_, &verify_,
                       &walked_}) {
      sum->begin();
    }
    Tracer::Span op(tracer, "op");
    {
      Tracer::Span span(tracer, "topology.fault");
      change();
    }
    std::size_t changed = 0;
    {
      Tracer::Span span(tracer, "routing.reconverge");
      simulator_->reconverge();
      changed = simulator_->take_changed_devices().size();
    }
    rcdc::PipelineStats stats;
    {
      Tracer::Span span(tracer, "rcdc.cycle");
      stats = cycle();
    }
    const double ms = op.stop();
    for (OpSum* sum : {&fetch_, &fingerprint_, &queue_wait_, &verify_,
                       &walked_}) {
      sum->end();
    }
    out.latency_ms.push_back(ms);
    out.work += 1.0;
    out.busy_s += ms / 1e3;
    changed_ += static_cast<double>(changed);
    fetched_ += static_cast<double>(stats.devices - stats.devices_failed);
    revalidated_ += static_cast<double>(stats.devices_revalidated);
    return stats;
  }

  /// A cycle with nothing changed; its verdict must equal the last one.
  void steady_cycle(const rcdc::PipelineStats& last, topo::DeviceId faulted,
                    Measurement& out) {
    const auto start = Clock::now();
    const rcdc::PipelineStats stats = cycle();
    out.check_latency_ms.push_back(ms_between(start, Clock::now()));
    std::string error;
    if (stats.violations != last.violations) {
      error = "steady cycle moved the verdict from " +
              std::to_string(last.violations) + " to " +
              std::to_string(stats.violations) + " violations";
    } else if (faulted != topo::kInvalidDevice && !flagged(faulted)) {
      error = "steady cycle lost the fault on " +
              topology_.device(faulted).name;
    }
    out.count(error);
  }

  void fault_and_repair(Tracer& tracer, Measurement& out) {
    const auto tors = topology_.devices_with_role(topo::DeviceRole::kTor);
    const topo::DeviceId tor = tors[std::uniform_int_distribution<std::size_t>(
        0, tors.size() - 1)(rng_)];
    const topo::DeviceFaultKind kind =
        kFaultKinds[std::uniform_int_distribution<std::size_t>(
            0, kFaultKinds.size() - 1)(rng_)];

    const rcdc::PipelineStats faulted = op(
        tracer, out, [&] { injector_.device_fault(tor, kind); });
    out.count(flagged(tor) ? ""
                           : std::string(topo::to_string(kind)) + " on " +
                                 topology_.device(tor).name +
                                 " not among the violations");
    steady_cycle(faulted, tor, out);

    const rcdc::PipelineStats repaired =
        op(tracer, out, [&] { injector_.repair(0); });
    out.count(repaired.violations == baseline_
                  ? ""
                  : "repair of " + topology_.device(tor).name + " left " +
                        std::to_string(repaired.violations) +
                        " violations, baseline " + std::to_string(baseline_));
    steady_cycle(repaired, topo::kInvalidDevice, out);
  }

  topo::Topology topology_;
  topo::MetadataService metadata_;
  topo::FaultInjector injector_;
  std::mt19937_64 rng_;
  dcv::obs::MetricsRegistry* metrics_;
  std::unique_ptr<routing::BgpSimulator> simulator_;
  std::unique_ptr<rcdc::SimulatorFibSource> fibs_;
  std::unique_ptr<rcdc::MonitoringPipeline> pipeline_;
  std::vector<topo::DeviceId> flagged_;  // written by the alert sink
  std::size_t baseline_ = 0;
  std::size_t contracts_ = 0;
  double converge_ms_ = 0.0;
  double changed_ = 0.0;
  double fetched_ = 0.0;
  double revalidated_ = 0.0;
  OpSum fetch_;
  OpSum fingerprint_;
  OpSum queue_wait_;
  OpSum verify_;
  OpSum walked_;
};

}  // namespace

WorkloadSpec drift_spec() {
  return WorkloadSpec{
      .name = "drift",
      // Pullers and validators run together; the BGP pool is idle then.
      .threads = std::max(kBgpThreads, kPullers + kValidators),
      .connections = 0,
      .budget = {{"bgp_threads", json_number(kBgpThreads)},
                 {"pullers", json_number(kPullers)},
                 {"validators", json_number(kValidators)},
                 {"connections", "0"}},
      .make = [](std::uint64_t seed, Hooks hooks, Tracer& tracer,
                 Measurement& out) -> std::unique_ptr<Workload> {
        return std::make_unique<Drift>(seed, hooks, tracer, out);
      }};
}

}  // namespace dcbench
