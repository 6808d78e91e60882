// One fabric, one fetch layer, three validation loops: the batch
// validator, the monitoring pipeline (cold and warm) and a distributed
// worker serving one shard run the same per-device step, so they must
// agree on every violation and on every fetch-layer count.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "dist/messages.hpp"
#include "dist/worker.hpp"
#include "rcdc/pipeline.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"

namespace dcv::rcdc {
namespace {

bool violation_order(const Violation& a, const Violation& b) {
  return std::tie(a.device, a.contract.prefix, a.rule_prefix, a.kind,
                  a.actual_next_hops) < std::tie(b.device, b.contract.prefix,
                                                 b.rule_prefix, b.kind,
                                                 b.actual_next_hops);
}

/// A pull's outcome depends only on the device id: two devices hard-fail,
/// one returns a truncated table (every other rule, no default route), one
/// is served stale, and the rest are clean.
class DeviceKeyedFibSource final : public FibSource {
 public:
  DeviceKeyedFibSource(const routing::BgpSimulator& sim,
                       const topo::Topology& topology)
      : inner_(sim) {
    const auto tors = topology.devices_with_role(topo::DeviceRole::kTor);
    const auto leaves = topology.devices_with_role(topo::DeviceRole::kLeaf);
    failed_ = {tors[1], leaves[0]};
    truncated_device_ = tors[2];
    stale_device_ = leaves[1];
    routing::ForwardingTable truncated;
    bool keep = true;
    for (const routing::Rule& rule : sim.fib(truncated_device_).rules()) {
      if (rule.prefix.length() != 0 && keep) truncated.add(rule);
      keep = !keep;
    }
    truncated_ = routing::share_fib(std::move(truncated));
  }

  [[nodiscard]] FetchOutcome try_fetch(topo::DeviceId device) const override {
    if (std::find(failed_.begin(), failed_.end(), device) != failed_.end()) {
      return FetchOutcome::failure(FetchErrorKind::kUnreachable);
    }
    if (device == truncated_device_) {
      return FetchOutcome::garbage(FetchErrorKind::kTruncatedTable,
                                   truncated_);
    }
    FetchOutcome out = inner_.try_fetch(device);
    if (device == stale_device_) {
      out.error = FetchErrorKind::kTimeout;
      out.stale = true;
      out.staleness = std::chrono::seconds(30);
    }
    return out;
  }

 private:
  SimulatorFibSource inner_;
  std::vector<topo::DeviceId> failed_;
  topo::DeviceId truncated_device_ = topo::kInvalidDevice;
  topo::DeviceId stale_device_ = topo::kInvalidDevice;
  routing::FibPtr truncated_;
};

/// The coordinator's side of one session, scripted: welcome, one assign,
/// shutdown. Keeps every frame the worker sends.
class ScriptedCoordinator final : public dist::Transport {
 public:
  explicit ScriptedCoordinator(const dist::AssignMsg& assign) {
    inbox_.push_back(dist::encode(dist::WelcomeMsg{}));
    inbox_.push_back(dist::encode(assign));
    inbox_.push_back(dist::encode_shutdown());
  }

  bool send(const dist::Frame& frame) override {
    sent_.push_back(frame);
    return true;
  }
  std::optional<dist::Frame> poll() override {
    if (inbox_.empty()) return std::nullopt;
    dist::Frame frame = std::move(inbox_.front());
    inbox_.pop_front();
    return frame;
  }
  bool closed() const override { return false; }
  std::string peer() const override { return "coordinator"; }

  [[nodiscard]] std::optional<dist::ResultMsg> result() const {
    for (const dist::Frame& frame : sent_) {
      if (frame.type == dist::MsgType::kResult) {
        return dist::decode_result(frame.payload);
      }
    }
    return std::nullopt;
  }

 private:
  std::deque<dist::Frame> inbox_;
  std::vector<dist::Frame> sent_;
};

/// What every loop reports, in one shape.
struct Verdict {
  std::vector<Violation> violations;  // sorted
  std::size_t devices_failed = 0;
  std::size_t devices_stale = 0;
  std::size_t violations_degraded = 0;
  std::size_t contracts_checked = 0;
};

class CrossDriver : public testing::Test {
 protected:
  CrossDriver()
      : topology_(topo::build_clos(topo::ClosParams{.clusters = 3,
                                                    .tors_per_cluster = 4,
                                                    .leaves_per_cluster = 4,
                                                    .spines_per_plane = 1,
                                                    .regional_spines = 4})),
        metadata_(topology_),
        faults_(topology_) {
    // A real routing fault too, so clean pulls carry violations as well.
    faults_.link_down(*topology_.find_link(topology_.tors_in_cluster(0)[0],
                                           topology_.leaves_in_cluster(0)[0]));
  }

  topo::Topology topology_;
  topo::MetadataService metadata_;
  topo::FaultInjector faults_;
};

TEST_F(CrossDriver, BatchPipelineAndWorkerAgree) {
  const routing::BgpSimulator sim(topology_, &faults_);
  const DeviceKeyedFibSource fibs(sim, topology_);

  // Batch sweep on a 4-thread pool.
  Verdict batch;
  {
    const DatacenterValidator validator(metadata_, fibs,
                                        make_trie_verifier_factory());
    ValidationSummary summary = validator.run(4);
    batch = {std::move(summary.violations), summary.devices_failed,
             summary.devices_stale, summary.violations_degraded,
             summary.contracts_checked};
    std::sort(batch.violations.begin(), batch.violations.end(),
              violation_order);
  }
  ASSERT_EQ(batch.devices_failed, 2u);
  ASSERT_EQ(batch.devices_stale, 1u);
  ASSERT_GT(batch.violations_degraded, 0u);
  ASSERT_GT(batch.violations.size(), batch.violations_degraded);

  // Monitoring pipeline: a cold cycle, then a warm one.
  std::vector<Violation> reported;
  MonitoringPipeline pipeline(metadata_, fibs, make_trie_verifier_factory(),
                              PipelineConfig{.puller_workers = 2,
                                             .validator_workers = 2,
                                             .time_scale = 0.0});
  pipeline.set_alert_sink(
      [&reported](const Violation& violation, const RiskAssessment&) {
        reported.push_back(violation);
      });
  const auto pipeline_cycle = [&] {
    reported.clear();
    const PipelineStats stats = pipeline.run_cycle();
    std::sort(reported.begin(), reported.end(), violation_order);
    return std::pair{stats, Verdict{reported, stats.devices_failed,
                                    stats.devices_stale,
                                    stats.violations_degraded,
                                    stats.contracts_checked}};
  };
  const auto [cold_stats, cold] = pipeline_cycle();
  const auto [warm_stats, warm] = pipeline_cycle();

  // One distributed worker validating the whole plan as one shard.
  const ContractPlanPtr plan = ContractGenerator(metadata_).plan();
  dist::AssignMsg assign;
  assign.shard_id = 1;
  assign.plan_epoch = plan->epoch();
  assign.cycle_id = 1;
  for (const DeviceContracts& entry : plan->devices()) {
    assign.devices.push_back({entry.device, entry.contracts});
  }
  ScriptedCoordinator coordinator(assign);
  dist::WorkerSession session(fibs, make_trie_verifier_factory());
  ASSERT_EQ(session.run(coordinator), dist::SessionEnd::kShutdown);
  const std::optional<dist::ResultMsg> result = coordinator.result();
  ASSERT_TRUE(result.has_value());
  std::vector<Violation> shard_violations = result->violations;
  std::sort(shard_violations.begin(), shard_violations.end(),
            violation_order);
  const Verdict worker{std::move(shard_violations), result->devices_failed,
                       result->devices_stale, result->violations_degraded,
                       result->contracts_checked};

  for (const auto& [name, verdict] :
       {std::pair{"cold pipeline", &cold}, std::pair{"warm pipeline", &warm},
        std::pair{"worker", &worker}}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(verdict->violations, batch.violations);
    EXPECT_EQ(verdict->devices_failed, batch.devices_failed);
    EXPECT_EQ(verdict->devices_stale, batch.devices_stale);
    EXPECT_EQ(verdict->violations_degraded, batch.violations_degraded);
  }
  EXPECT_EQ(cold.contracts_checked, batch.contracts_checked);
  EXPECT_EQ(worker.contracts_checked, batch.contracts_checked);
  // The warm cycle replays every verdict: nothing is checked again.
  EXPECT_EQ(warm_stats.devices_revalidated, 0u);
  EXPECT_EQ(warm_stats.devices_skipped, cold_stats.devices_revalidated);
  EXPECT_EQ(warm.contracts_checked, 0u);
}

}  // namespace
}  // namespace dcv::rcdc
