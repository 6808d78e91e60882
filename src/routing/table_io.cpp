#include "routing/table_io.hpp"

#include <sstream>

#include "net/error.hpp"

namespace dcv::routing {

net::Ipv4Address device_address(topo::DeviceId device) {
  return net::Ipv4Address(net::Ipv4Address::from_octets(172, 16, 0, 0).value() +
                          device + 1);
}

std::string write_routing_table(const ForwardingTable& fib) {
  std::ostringstream out;
  out << "VRF name: default\n";
  out << "Codes: C - connected, S - static, B E - eBGP\n";
  if (const Rule* def = fib.default_route(); def != nullptr) {
    out << "Gateway of last resort:\n";
  }
  for (const Rule& rule : fib.rules()) {
    if (rule.connected) {
      out << "C " << rule.prefix.to_string() << " directly connected\n";
      continue;
    }
    out << "B E " << rule.prefix.to_string() << " [200/0]";
    bool first = true;
    for (const topo::DeviceId hop : rule.next_hops) {
      if (first) {
        out << " via " << device_address(hop).to_string() << "\n";
        first = false;
      } else {
        out << "      via " << device_address(hop).to_string() << "\n";
      }
    }
    if (first) out << " drop\n";  // no next hops programmed
  }
  return out.str();
}

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Extracts the next whitespace-delimited token, advancing `s` past it.
std::string_view next_token(std::string_view& s) {
  s = trim(s);
  std::size_t end = 0;
  while (end < s.size() && s[end] != ' ' && s[end] != '\t') ++end;
  const auto token = s.substr(0, end);
  s.remove_prefix(end);
  return token;
}

}  // namespace

ParsedRoutingTable parse_routing_table(std::string_view text) {
  ParsedRoutingTable table;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    line = trim(line);
    if (line.empty()) continue;
    if (starts_with(line, "VRF name:")) {
      table.vrf = std::string(trim(line.substr(9)));
      continue;
    }
    if (starts_with(line, "Codes:") || starts_with(line, "Gateway of")) {
      continue;
    }
    if (starts_with(line, "via ")) {
      // Continuation line: additional ECMP next hop of the previous route.
      if (table.routes.empty()) {
        throw ParseError("continuation 'via' before any route line");
      }
      auto rest = line.substr(4);
      table.routes.back().via.push_back(
          net::Ipv4Address::parse(std::string(trim(rest))));
      continue;
    }
    if (starts_with(line, "C ")) {
      auto rest = line.substr(2);
      const auto prefix_token = next_token(rest);
      table.routes.push_back(
          ParsedRoute{.prefix = net::Prefix::parse(prefix_token),
                      .connected = true,
                      .via = {}});
      continue;
    }
    if (starts_with(line, "B E ")) {
      auto rest = line.substr(4);
      const auto prefix_token = next_token(rest);
      ParsedRoute route{.prefix = net::Prefix::parse(prefix_token),
                        .connected = false,
                        .via = {}};
      // Remaining tokens: optional "[adm/metric]", then "via <addr>" or
      // "drop".
      while (true) {
        const auto token = next_token(rest);
        if (token.empty()) break;
        if (token.front() == '[') continue;  // administrative distance
        if (token == "drop") break;
        if (token == "via") {
          const auto addr = next_token(rest);
          // Tolerate trailing commas as in real device output.
          auto cleaned = addr;
          if (!cleaned.empty() && cleaned.back() == ',') {
            cleaned.remove_suffix(1);
          }
          route.via.push_back(net::Ipv4Address::parse(cleaned));
          continue;
        }
        throw ParseError("unexpected token '" + std::string(token) +
                         "' in route line");
      }
      table.routes.push_back(std::move(route));
      continue;
    }
    throw ParseError("unrecognized routing-table line: '" +
                     std::string(line) + "'");
  }
  return table;
}

ForwardingTable to_forwarding_table(const ParsedRoutingTable& parsed,
                                    const topo::Topology& topology) {
  const std::uint32_t base =
      net::Ipv4Address::from_octets(172, 16, 0, 0).value();
  std::vector<Rule> rules;
  rules.reserve(parsed.routes.size());
  for (const ParsedRoute& route : parsed.routes) {
    Rule& rule = rules.emplace_back(Rule{.prefix = route.prefix,
                                         .next_hops = {},
                                         .connected = route.connected});
    rule.next_hops.reserve(route.via.size());
    for (const net::Ipv4Address via : route.via) {
      const std::uint64_t offset = std::uint64_t{via.value()} - base;
      if (via.value() < base || offset == 0 ||
          offset > topology.device_count()) {
        throw ParseError("next hop " + via.to_string() +
                         " does not resolve to a device");
      }
      rule.next_hops.push_back(static_cast<topo::DeviceId>(offset - 1));
    }
  }
  // A written table lists its rules in canonical order, so the bulk build
  // is one pass; a repeated prefix keeps its last route, as add() would.
  return ForwardingTable(std::move(rules));
}

}  // namespace dcv::routing
