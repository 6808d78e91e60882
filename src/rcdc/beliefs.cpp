#include "rcdc/beliefs.hpp"

#include <functional>
#include <map>

namespace dcv::rcdc {

std::string_view to_string(BeliefKind kind) {
  switch (kind) {
    case BeliefKind::kReachable:
      return "reachable";
    case BeliefKind::kUnreachable:
      return "unreachable";
    case BeliefKind::kMaxPathLength:
      return "max-path-length";
    case BeliefKind::kMinEcmpPaths:
      return "min-ecmp-paths";
    case BeliefKind::kTraverses:
      return "traverses";
    case BeliefKind::kAvoids:
      return "avoids";
  }
  return "?";
}

std::string Belief::to_string(const topo::Topology& topology) const {
  std::string out = std::string(rcdc::to_string(kind)) + " " +
                    topology.device(source).name + " -> " +
                    destination.to_string();
  switch (kind) {
    case BeliefKind::kMaxPathLength:
    case BeliefKind::kMinEcmpPaths:
      out += " (" + std::to_string(bound) + ")";
      break;
    case BeliefKind::kTraverses:
    case BeliefKind::kAvoids:
      out += " via " + topology.device(via).name;
      break;
    default:
      break;
  }
  return out;
}

namespace {

/// Per-device facts about the forwarding graph toward one destination.
struct NodeFacts {
  bool visiting = false;
  bool done = false;
  bool reaches = false;       // delivers to the destination ToR
  std::uint64_t paths = 0;    // distinct delivering paths from here
  int min_len = 0;
  int max_len = 0;
  bool via_downstream = false;  // some delivering path from here passes via
};

}  // namespace

BeliefResult BeliefChecker::check(const Belief& belief) const {
  BeliefResult result;
  result.belief = belief;

  const auto fact = metadata_->locate(belief.destination);
  if (!fact) {
    result.holds = belief.kind == BeliefKind::kUnreachable ||
                   belief.kind == BeliefKind::kAvoids;
    result.observed = "destination prefix is not hosted";
    return result;
  }

  std::map<topo::DeviceId, NodeFacts> facts;
  const net::Ipv4Address address = belief.destination.first();

  const std::function<NodeFacts(topo::DeviceId)> visit =
      [&](topo::DeviceId device) -> NodeFacts {
    NodeFacts& entry = facts[device];
    if (entry.done || entry.visiting) return entry;  // loops deliver nothing
    entry.visiting = true;
    NodeFacts computed;
    if (device == fact->tor) {
      computed.reaches = true;
      computed.paths = 1;
      computed.via_downstream = device == belief.via;
    } else {
      const routing::FibPtr fib = fibs_->fetch(device);
      if (const routing::Rule* rule = fib->lookup(address);
          rule != nullptr && !rule->connected) {
        for (const topo::DeviceId next : rule->next_hops) {
          const NodeFacts child = visit(next);
          if (!child.reaches) continue;
          if (computed.paths == 0) {
            computed.min_len = child.min_len + 1;
            computed.max_len = child.max_len + 1;
          } else {
            computed.min_len = std::min(computed.min_len, child.min_len + 1);
            computed.max_len = std::max(computed.max_len, child.max_len + 1);
          }
          computed.reaches = true;
          computed.paths += child.paths;
          computed.via_downstream =
              computed.via_downstream || child.via_downstream;
        }
      }
      if (computed.reaches && device == belief.via) {
        computed.via_downstream = true;
      }
    }
    NodeFacts& stored = facts[device];
    computed.done = true;
    stored = computed;
    return stored;
  };

  const NodeFacts source = visit(belief.source);
  result.observed =
      source.reaches
          ? std::to_string(source.paths) + " paths, lengths " +
                std::to_string(source.min_len) + ".." +
                std::to_string(source.max_len)
          : "not delivered";

  switch (belief.kind) {
    case BeliefKind::kReachable:
      result.holds = source.reaches;
      break;
    case BeliefKind::kUnreachable:
      result.holds = !source.reaches;
      break;
    case BeliefKind::kMaxPathLength:
      result.holds = source.reaches &&
                     static_cast<std::uint64_t>(source.max_len) <=
                         belief.bound;
      break;
    case BeliefKind::kMinEcmpPaths:
      result.holds = source.paths >= belief.bound;
      break;
    case BeliefKind::kTraverses:
      result.holds = source.reaches && source.via_downstream;
      break;
    case BeliefKind::kAvoids:
      result.holds = !source.reaches || !source.via_downstream;
      break;
  }
  return result;
}

std::vector<BeliefResult> BeliefChecker::check_all(
    const std::vector<Belief>& beliefs) const {
  std::vector<BeliefResult> out;
  out.reserve(beliefs.size());
  for (const Belief& belief : beliefs) out.push_back(check(belief));
  return out;
}

}  // namespace dcv::rcdc
