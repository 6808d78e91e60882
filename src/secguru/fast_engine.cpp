#include "secguru/fast_engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "exec/executor.hpp"

namespace dcv::secguru {

namespace {

PacketCube proto_clamped(PacketCube cube, const net::ProtocolSpec& spec) {
  if (!spec.is_any()) {
    cube.proto_lo = *spec.number;
    cube.proto_hi = *spec.number;
  }
  return cube;
}

}  // namespace

PacketCube PacketCube::from_rule(const Rule& rule) {
  return proto_clamped(
      PacketCube{.src = net::AddressInterval::from_prefix(rule.src),
                 .src_ports = rule.src_ports,
                 .dst = net::AddressInterval::from_prefix(rule.dst),
                 .dst_ports = rule.dst_ports},
      rule.protocol);
}

PacketCube PacketCube::from_contract(const ConnectivityContract& contract) {
  return proto_clamped(
      PacketCube{.src = net::AddressInterval::from_prefix(contract.src),
                 .src_ports = contract.src_ports,
                 .dst = net::AddressInterval::from_prefix(contract.dst),
                 .dst_ports = contract.dst_ports},
      contract.protocol);
}

bool PacketCube::valid() const {
  return src.valid() && src_ports.valid() && dst.valid() &&
         dst_ports.valid() && proto_lo <= proto_hi;
}

std::optional<PacketCube> PacketCube::intersect(
    const PacketCube& other) const {
  const PacketCube out{
      .src = src.intersection(other.src),
      .src_ports = src_ports.intersection(other.src_ports),
      .dst = dst.intersection(other.dst),
      .dst_ports = dst_ports.intersection(other.dst_ports),
      .proto_lo = std::max(proto_lo, other.proto_lo),
      .proto_hi = std::min(proto_hi, other.proto_hi)};
  if (!out.valid()) return std::nullopt;
  return out;
}

bool PacketCube::contains(const net::PacketHeader& packet) const {
  return src.contains(packet.src_ip) && src_ports.contains(packet.src_port) &&
         dst.contains(packet.dst_ip) && dst_ports.contains(packet.dst_port) &&
         proto_lo <= packet.protocol && packet.protocol <= proto_hi;
}

net::PacketHeader PacketCube::low_corner() const {
  return net::PacketHeader{.src_ip = src.lo,
                           .src_port = src_ports.lo,
                           .dst_ip = dst.lo,
                           .dst_port = dst_ports.lo,
                           .protocol = proto_lo};
}

void PacketCube::subtract(const PacketCube& other,
                          std::vector<PacketCube>& out) const {
  const auto inter = intersect(other);
  if (!inter) {
    out.push_back(*this);
    return;
  }
  // Dimension sweep: carve the slabs of this cube outside the intersection
  // along each dimension in turn, clamping the remainder to the
  // intersection's extent before moving to the next dimension. What is
  // left at the end is the intersection itself — the part removed.
  PacketCube rest = *this;

  if (rest.src.lo < inter->src.lo) {
    PacketCube piece = rest;
    piece.src = {rest.src.lo, net::Ipv4Address(inter->src.lo.value() - 1)};
    out.push_back(piece);
  }
  if (inter->src.hi < rest.src.hi) {
    PacketCube piece = rest;
    piece.src = {net::Ipv4Address(inter->src.hi.value() + 1), rest.src.hi};
    out.push_back(piece);
  }
  rest.src = inter->src;

  if (rest.src_ports.lo < inter->src_ports.lo) {
    PacketCube piece = rest;
    piece.src_ports = {rest.src_ports.lo,
                       static_cast<std::uint16_t>(inter->src_ports.lo - 1)};
    out.push_back(piece);
  }
  if (inter->src_ports.hi < rest.src_ports.hi) {
    PacketCube piece = rest;
    piece.src_ports = {static_cast<std::uint16_t>(inter->src_ports.hi + 1),
                       rest.src_ports.hi};
    out.push_back(piece);
  }
  rest.src_ports = inter->src_ports;

  if (rest.dst.lo < inter->dst.lo) {
    PacketCube piece = rest;
    piece.dst = {rest.dst.lo, net::Ipv4Address(inter->dst.lo.value() - 1)};
    out.push_back(piece);
  }
  if (inter->dst.hi < rest.dst.hi) {
    PacketCube piece = rest;
    piece.dst = {net::Ipv4Address(inter->dst.hi.value() + 1), rest.dst.hi};
    out.push_back(piece);
  }
  rest.dst = inter->dst;

  if (rest.dst_ports.lo < inter->dst_ports.lo) {
    PacketCube piece = rest;
    piece.dst_ports = {rest.dst_ports.lo,
                       static_cast<std::uint16_t>(inter->dst_ports.lo - 1)};
    out.push_back(piece);
  }
  if (inter->dst_ports.hi < rest.dst_ports.hi) {
    PacketCube piece = rest;
    piece.dst_ports = {static_cast<std::uint16_t>(inter->dst_ports.hi + 1),
                       rest.dst_ports.hi};
    out.push_back(piece);
  }
  rest.dst_ports = inter->dst_ports;

  if (rest.proto_lo < inter->proto_lo) {
    PacketCube piece = rest;
    piece.proto_hi = static_cast<std::uint8_t>(inter->proto_lo - 1);
    out.push_back(piece);
  }
  if (inter->proto_hi < rest.proto_hi) {
    PacketCube piece = rest;
    piece.proto_lo = static_cast<std::uint8_t>(inter->proto_hi + 1);
    out.push_back(piece);
  }
}

std::string PacketCube::to_string() const {
  return "src " + src.to_string() + " ports " + src_ports.to_string() +
         " -> dst " + dst.to_string() + " ports " + dst_ports.to_string() +
         " proto [" + std::to_string(proto_lo) + ", " +
         std::to_string(proto_hi) + "]";
}

namespace {

/// Subtracts `cube` from every region, rewriting `regions` in place via
/// `scratch`. Returns false when the result exceeds `budget` (the caller
/// must treat the check as inconclusive).
bool subtract_all(std::vector<PacketCube>& regions, const PacketCube& cube,
                  std::vector<PacketCube>& scratch, std::size_t budget) {
  scratch.clear();
  for (const PacketCube& region : regions) {
    region.subtract(cube, scratch);
    if (scratch.size() > budget) return false;
  }
  regions.swap(scratch);
  return true;
}

FastDecision decide_first_applicable(const Policy& policy,
                                     const ConnectivityContract& contract,
                                     std::size_t budget) {
  // The action that would contradict the expectation if it decided a
  // contract packet.
  const Action violating_action = contract.expect == Expectation::kAllow
                                      ? Action::kDeny
                                      : Action::kPermit;
  std::vector<PacketCube> residual{PacketCube::from_contract(contract)};
  std::vector<PacketCube> scratch;
  for (const Rule& rule : policy.rules) {
    if (residual.empty()) break;
    const PacketCube cube = PacketCube::from_rule(rule);
    if (!cube.valid()) continue;  // inverted port range: matches nothing
    if (rule.action == violating_action) {
      // Any undecided contract packet this rule matches is decided here,
      // against the expectation: a witness. No overlap means the rule
      // decides no undecided packet, so the residual is untouched.
      for (const PacketCube& region : residual) {
        if (const auto hit = region.intersect(cube)) {
          return {FastVerdict::kViolated, hit->low_corner()};
        }
      }
      continue;
    }
    // Rule action agrees with the expectation: packets it decides comply;
    // remove them from the undecided set.
    if (!subtract_all(residual, cube, scratch, budget)) {
      return {FastVerdict::kInconclusive, std::nullopt};
    }
  }
  if (!residual.empty() && contract.expect == Expectation::kAllow) {
    // Undecided packets fall to the implicit default deny.
    return {FastVerdict::kViolated, residual.front().low_corner()};
  }
  return {FastVerdict::kHolds, std::nullopt};
}

FastDecision decide_deny_overrides(const Policy& policy,
                                   const ConnectivityContract& contract,
                                   std::size_t budget) {
  const PacketCube domain = PacketCube::from_contract(contract);
  std::vector<PacketCube> scratch;
  if (contract.expect == Expectation::kAllow) {
    // Violated iff some contract packet is denied: it matches a deny rule,
    // or it matches no permit rule at all.
    for (const Rule& rule : policy.rules) {
      if (rule.action != Action::kDeny) continue;
      const PacketCube cube = PacketCube::from_rule(rule);
      if (!cube.valid()) continue;
      if (const auto hit = domain.intersect(cube)) {
        return {FastVerdict::kViolated, hit->low_corner()};
      }
    }
    std::vector<PacketCube> uncovered{domain};
    for (const Rule& rule : policy.rules) {
      if (rule.action != Action::kPermit) continue;
      if (uncovered.empty()) break;
      const PacketCube cube = PacketCube::from_rule(rule);
      if (!cube.valid()) continue;
      if (!subtract_all(uncovered, cube, scratch, budget)) {
        return {FastVerdict::kInconclusive, std::nullopt};
      }
    }
    if (!uncovered.empty()) {
      return {FastVerdict::kViolated, uncovered.front().low_corner()};
    }
    return {FastVerdict::kHolds, std::nullopt};
  }
  // Deny expectation: violated iff some contract packet is admitted — it
  // matches a permit rule and no deny rule.
  bool capped = false;
  for (const Rule& permit : policy.rules) {
    if (permit.action != Action::kPermit) continue;
    const PacketCube cube = PacketCube::from_rule(permit);
    if (!cube.valid()) continue;
    const auto seed = domain.intersect(cube);
    if (!seed) continue;
    std::vector<PacketCube> admitted{*seed};
    bool this_permit_capped = false;
    for (const Rule& deny : policy.rules) {
      if (deny.action != Action::kDeny) continue;
      if (admitted.empty()) break;
      const PacketCube deny_cube = PacketCube::from_rule(deny);
      if (!deny_cube.valid()) continue;
      if (!subtract_all(admitted, deny_cube, scratch, budget)) {
        this_permit_capped = true;
        break;
      }
    }
    if (this_permit_capped) {
      // Keep scanning: a later permit may still yield a definite witness,
      // but a clean "holds" is no longer provable on the fast path.
      capped = true;
      continue;
    }
    if (!admitted.empty()) {
      return {FastVerdict::kViolated, admitted.front().low_corner()};
    }
  }
  if (capped) return {FastVerdict::kInconclusive, std::nullopt};
  return {FastVerdict::kHolds, std::nullopt};
}

}  // namespace

FastEngine::FastEngine(FastEngineConfig config, obs::MetricsRegistry* metrics)
    : config_(config) {
  if (metrics != nullptr) {
    fastpath_hits_metric_ = &metrics->counter(
        "dcv_secguru_fastpath_hits_total",
        "Contract checks decided by interval algebra without Z3");
    smt_fallbacks_metric_ = &metrics->counter(
        "dcv_secguru_smt_fallbacks_total",
        "Contract checks that fell back to the Z3 engine");
    check_ns_ = &metrics->histogram(
        "dcv_secguru_check_ns", "SecGuru contract check latency (ns)");
  }
}

FastEngine::~FastEngine() = default;

Engine& FastEngine::fallback_engine(std::size_t slot) {
  // The slot vector is sized before workers start; each slot is owned by
  // exactly one worker, so lazy creation here is race-free.
  auto& engine = fallbacks_[slot];
  if (!engine) engine = std::make_unique<Engine>();
  return *engine;
}

FastDecision FastEngine::try_decide(
    const Policy& policy, const ConnectivityContract& contract) const {
  const PacketCube domain = PacketCube::from_contract(contract);
  if (!domain.valid()) {
    // An empty contract filter holds vacuously under either expectation.
    return {FastVerdict::kHolds, std::nullopt};
  }
  switch (policy.semantics) {
    case PolicySemantics::kFirstApplicable:
      return decide_first_applicable(policy, contract,
                                     config_.max_residual_cubes);
    case PolicySemantics::kDenyOverrides:
      return decide_deny_overrides(policy, contract,
                                   config_.max_residual_cubes);
  }
  return {FastVerdict::kInconclusive, std::nullopt};
}

ContractCheckResult FastEngine::check_one(const Policy& policy,
                                          const ConnectivityContract& contract,
                                          std::size_t slot) {
  const auto start = std::chrono::steady_clock::now();
  ContractCheckResult result;
  const FastDecision decision = try_decide(policy, contract);
  if (decision.verdict == FastVerdict::kInconclusive) {
    smt_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    if (smt_fallbacks_metric_ != nullptr) smt_fallbacks_metric_->inc();
    result = fallback_engine(slot).check(policy, contract);
  } else {
    fastpath_hits_.fetch_add(1, std::memory_order_relaxed);
    if (fastpath_hits_metric_ != nullptr) fastpath_hits_metric_->inc();
    result.contract_name = contract.name;
    result.holds = decision.verdict == FastVerdict::kHolds;
    if (!result.holds) {
      result.witness = decision.witness;
      // Same reporting convention as Engine::check: the rule that decides
      // the witness is the violator (nullopt = implicit default deny).
      result.violating_rule = evaluate(policy, *decision.witness).rule_index;
    }
  }
  if (check_ns_ != nullptr) {
    check_ns_->observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  return result;
}

ContractCheckResult FastEngine::check(const Policy& policy,
                                      const ConnectivityContract& contract) {
  if (fallbacks_.empty()) fallbacks_.resize(1);
  return check_one(policy, contract, 0);
}

PolicyReport FastEngine::check_suite(const Policy& policy,
                                     const ContractSuite& suite,
                                     unsigned threads) {
  PolicyReport report;
  report.policy_name = policy.name;
  report.contracts_checked = suite.contracts.size();
  const std::size_t n = suite.contracts.size();
  // One fallback slot per worker index exec::for_each can hand out.
  const std::size_t slots = std::min<std::size_t>(std::max(1u, threads), n);
  if (fallbacks_.size() < slots) fallbacks_.resize(slots);

  std::vector<std::optional<ContractCheckResult>> failures(n);
  exec::for_each(threads, n, [&](unsigned worker, std::size_t i) {
    auto result = check_one(policy, suite.contracts[i], worker);
    if (!result.holds) failures[i] = std::move(result);
  });
  for (auto& failure : failures) {
    if (failure) report.failures.push_back(std::move(*failure));
  }
  return report;
}

IncrementalSuiteChecker::IncrementalSuiteChecker(FastEngine& engine,
                                                 ContractSuite suite,
                                                 obs::MetricsRegistry* metrics)
    : engine_(&engine), suite_(std::move(suite)) {
  contract_cubes_.reserve(suite_.contracts.size());
  for (const ConnectivityContract& contract : suite_.contracts) {
    contract_cubes_.push_back(PacketCube::from_contract(contract));
  }
  if (metrics != nullptr) {
    reverified_total_ = &metrics->counter(
        "dcv_secguru_contracts_reverified_total",
        "Contracts re-verified because a rule edit touched their filter");
    skipped_total_ = &metrics->counter(
        "dcv_secguru_contracts_skipped_total",
        "Contracts whose cached verdict was replayed across a rule edit");
  }
}

void IncrementalSuiteChecker::reset() {
  primed_ = false;
  results_.clear();
  cached_policy_ = Policy{};
}

IncrementalSuiteChecker::Outcome IncrementalSuiteChecker::check(
    const Policy& policy) {
  const std::size_t n = suite_.contracts.size();
  Outcome outcome;
  outcome.report.policy_name = policy.name;
  outcome.report.contracts_checked = n;

  // Diff the rule lists: the longest common prefix, then the longest
  // common suffix of the remainder; both versions of everything in between
  // are the edit. Exact for single-rule insert/delete/modify; degrades to
  // "everything changed" (a full re-check) on wholesale rewrites.
  std::vector<PacketCube> changed;
  bool full = !primed_ || policy.semantics != cached_policy_.semantics;
  if (!full) {
    const auto& old_rules = cached_policy_.rules;
    const auto& new_rules = policy.rules;
    std::size_t prefix = 0;
    while (prefix < old_rules.size() && prefix < new_rules.size() &&
           old_rules[prefix] == new_rules[prefix]) {
      ++prefix;
    }
    std::size_t suffix = 0;
    while (suffix + prefix < old_rules.size() &&
           suffix + prefix < new_rules.size() &&
           old_rules[old_rules.size() - 1 - suffix] ==
               new_rules[new_rules.size() - 1 - suffix]) {
      ++suffix;
    }
    for (std::size_t i = prefix; i + suffix < old_rules.size(); ++i) {
      changed.push_back(PacketCube::from_rule(old_rules[i]));
    }
    for (std::size_t i = prefix; i + suffix < new_rules.size(); ++i) {
      changed.push_back(PacketCube::from_rule(new_rules[i]));
    }
  }

  std::vector<ContractCheckResult> fresh(n);
  for (std::size_t i = 0; i < n; ++i) {
    bool affected = full;
    if (!affected) {
      for (const PacketCube& cube : changed) {
        if (cube.valid() && contract_cubes_[i].valid() &&
            cube.overlaps(contract_cubes_[i])) {
          affected = true;
          break;
        }
      }
    }
    if (affected) {
      fresh[i] = engine_->check(policy, suite_.contracts[i]);
      ++outcome.reverified;
    } else {
      fresh[i] = results_[i];
      ++outcome.skipped;
    }
    if (!fresh[i].holds) outcome.report.failures.push_back(fresh[i]);
  }
  if (reverified_total_ != nullptr) reverified_total_->inc(outcome.reverified);
  if (skipped_total_ != nullptr) skipped_total_->inc(outcome.skipped);

  results_ = std::move(fresh);
  cached_policy_ = policy;
  primed_ = true;
  return outcome;
}

}  // namespace dcv::secguru
