#include "e2e/trace.hpp"

#include <set>
#include <sstream>

namespace dcv::e2e {

std::size_t ecmp_index(const net::PacketHeader& packet, std::size_t fanout) {
  if (fanout <= 1) return 0;
  // FNV-1a over the 5-tuple.
  std::uint64_t hash = 0xCBF29CE484222325ull;
  const auto mix = [&hash](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash ^= (value >> (8 * i)) & 0xFF;
      hash *= 0x100000001B3ull;
    }
  };
  mix(packet.src_ip.value(), 4);
  mix(packet.dst_ip.value(), 4);
  mix(packet.src_port, 2);
  mix(packet.dst_port, 2);
  mix(packet.protocol, 1);
  return static_cast<std::size_t>(hash % fanout);
}

TraceResult trace_flow(const topo::MetadataService& metadata,
                       const rcdc::FibSource& fibs, topo::DeviceId source,
                       const net::PacketHeader& packet) {
  TraceResult result;
  std::set<topo::DeviceId> visited;
  topo::DeviceId device = source;

  while (true) {
    if (!visited.insert(device).second) {
      result.outcome = TraceResult::Outcome::kLooped;
      result.hops.push_back(TraceHop{.device = device});
      return result;
    }
    const routing::FibPtr fib = fibs.fetch(device);
    const routing::Rule* rule = fib->lookup(packet.dst_ip);
    if (rule == nullptr) {
      result.hops.push_back(TraceHop{.device = device});
      result.outcome = TraceResult::Outcome::kDropped;
      return result;
    }
    result.hops.push_back(
        TraceHop{.device = device, .matched = rule->prefix});
    if (rule->connected) {
      // Delivered below this device iff it actually hosts the address.
      const auto& hosted = metadata.topology().device(device).hosted_prefixes;
      for (const net::Prefix& prefix : hosted) {
        if (prefix.contains(packet.dst_ip)) {
          result.outcome = TraceResult::Outcome::kDelivered;
          return result;
        }
      }
      result.outcome = TraceResult::Outcome::kMisdelivered;
      return result;
    }
    if (rule->next_hops.empty()) {
      result.outcome = TraceResult::Outcome::kDropped;  // discard route
      return result;
    }
    device = rule->next_hops[ecmp_index(packet, rule->next_hops.size())];
  }
}

std::string TraceResult::to_string(const topo::Topology& topology) const {
  std::ostringstream out;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (i > 0) out << " -> ";
    out << topology.device(hops[i].device).name;
  }
  switch (outcome) {
    case Outcome::kDelivered:
      out << " [delivered]";
      break;
    case Outcome::kDropped:
      out << " [dropped]";
      break;
    case Outcome::kLooped:
      out << " [loop]";
      break;
    case Outcome::kMisdelivered:
      out << " [misdelivered]";
      break;
  }
  return out.str();
}

}  // namespace dcv::e2e
