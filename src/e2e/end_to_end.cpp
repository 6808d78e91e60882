#include "e2e/end_to_end.hpp"

#include <functional>
#include <map>

#include "net/error.hpp"

namespace dcv::e2e {

void EndToEndChecker::protect(ProtectedPrefix protected_prefix) {
  for (ProtectedPrefix& existing : protected_prefixes_) {
    if (existing.prefix == protected_prefix.prefix) {
      existing = std::move(protected_prefix);
      return;
    }
  }
  protected_prefixes_.push_back(std::move(protected_prefix));
}

FlowVerdict EndToEndChecker::route(topo::DeviceId source_tor,
                                   const net::Prefix& prefix) {
  FlowVerdict verdict;
  const auto fact = metadata_->locate(prefix);
  if (!fact) return verdict;  // not a hosted prefix: not routed

  // Depth-first traversal of the forwarding graph for this destination,
  // fetching FIBs on demand and memoizing per device.
  struct NodeState {
    bool visiting = false;
    bool done = false;
    bool reachable = false;
    std::uint64_t paths = 0;
    int min_len = 0;
    int max_len = 0;
  };
  std::map<topo::DeviceId, NodeState> states;
  const net::Ipv4Address address = prefix.first();

  const std::function<NodeState&(topo::DeviceId)> visit =
      [&](topo::DeviceId device) -> NodeState& {
    NodeState& state = states[device];
    if (state.done || state.visiting) return state;  // loop cut: !reachable
    state.visiting = true;
    if (device == fact->tor) {
      state = NodeState{.visiting = false,
                        .done = true,
                        .reachable = true,
                        .paths = 1,
                        .min_len = 0,
                        .max_len = 0};
      return states[device];
    }
    const routing::FibPtr fib = fibs_->fetch(device);
    if (const routing::Rule* rule = fib->lookup(address);
        rule != nullptr && !rule->connected) {
      for (const topo::DeviceId next : rule->next_hops) {
        const NodeState child = visit(next);  // copy: map may rehash
        if (!child.reachable) continue;
        if (state.paths == 0) {
          state.min_len = child.min_len + 1;
          state.max_len = child.max_len + 1;
        } else {
          state.min_len = std::min(state.min_len, child.min_len + 1);
          state.max_len = std::max(state.max_len, child.max_len + 1);
        }
        state.reachable = true;
        state.paths += child.paths;
      }
    }
    NodeState& stored = states[device];
    stored.visiting = false;
    stored.done = true;
    return stored;
  };

  const NodeState result = visit(source_tor);
  verdict.routed = result.reachable;
  verdict.paths = result.paths;
  verdict.min_path_length = result.min_len;
  verdict.max_path_length = result.max_len;
  return verdict;
}

FlowVerdict EndToEndChecker::check_flow(topo::DeviceId source_tor,
                                        const net::PacketHeader& packet) {
  // The destination prefix is the hosted prefix containing dst_ip.
  const ProtectedPrefix* destination = nullptr;
  net::Prefix prefix;
  bool found = false;
  for (const topo::PrefixFact& fact : metadata_->all_prefixes()) {
    if (fact.prefix.contains(packet.dst_ip)) {
      prefix = fact.prefix;
      found = true;
      break;
    }
  }
  if (!found) return FlowVerdict{};
  for (const ProtectedPrefix& candidate : protected_prefixes_) {
    if (candidate.prefix == prefix) destination = &candidate;
  }

  FlowVerdict verdict = route(source_tor, prefix);
  if (destination != nullptr) {
    const secguru::Decision decision =
        secguru::evaluate(destination->nsg.to_policy(), packet);
    verdict.admitted = decision.allowed;
    if (!decision.allowed) verdict.blocking_rule = decision.rule_index;
  }
  return verdict;
}

FlowVerdict EndToEndChecker::check_contract(
    topo::DeviceId source_tor,
    const secguru::ConnectivityContract& contract) {
  FlowVerdict verdict = route(source_tor, contract.dst);
  for (const ProtectedPrefix& candidate : protected_prefixes_) {
    if (!candidate.prefix.overlaps(contract.dst)) continue;
    const secguru::ContractCheckResult result =
        engine_.check(candidate.nsg.to_policy(), contract);
    verdict.admitted = result.holds;
    if (!result.holds) verdict.blocking_rule = result.violating_rule;
    break;
  }
  return verdict;
}

}  // namespace dcv::e2e
