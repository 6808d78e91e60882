#include "routing/table_io.hpp"

#include <gtest/gtest.h>

#include "net/error.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"

namespace dcv::routing {
namespace {

TEST(TableIo, DeviceAddressIsStable) {
  EXPECT_EQ(device_address(0).to_string(), "172.16.0.1");
  EXPECT_EQ(device_address(255).to_string(), "172.16.1.0");
}

TEST(TableIo, WriteContainsFigure2Furniture) {
  ForwardingTable fib;
  fib.add(Rule{.prefix = net::Prefix::default_route(), .next_hops = {0, 1}});
  const std::string text = write_routing_table(fib);
  EXPECT_NE(text.find("VRF name: default"), std::string::npos);
  EXPECT_NE(text.find("Gateway of last resort"), std::string::npos);
  EXPECT_NE(text.find("B E 0.0.0.0/0 [200/0] via 172.16.0.1"),
            std::string::npos);
}

TEST(TableIo, ParseFigure2StyleText) {
  const char* text =
      "VRF name: default\n"
      "Codes: C - connected, S - static, K - kernel,\n"
      "Gateway of last resort:\n"
      "B E 0.0.0.0/0 [200/0] via 172.16.0.1,\n"
      "                      via 172.16.0.2\n"
      "B E 10.3.129.224/28 [200/0] via 172.16.0.1\n"
      "C 10.0.0.0/24 directly connected\n";
  const ParsedRoutingTable parsed = parse_routing_table(text);
  EXPECT_EQ(parsed.vrf, "default");
  ASSERT_EQ(parsed.routes.size(), 3u);
  EXPECT_EQ(parsed.routes[0].prefix, net::Prefix::default_route());
  EXPECT_EQ(parsed.routes[0].via.size(), 2u);
  EXPECT_EQ(parsed.routes[1].prefix, net::Prefix::parse("10.3.129.224/28"));
  EXPECT_TRUE(parsed.routes[2].connected);
}

TEST(TableIo, ParseRejectsGarbage) {
  EXPECT_THROW(parse_routing_table("nonsense line\n"), ParseError);
  EXPECT_THROW(parse_routing_table("via 1.2.3.4\n"), ParseError);
  EXPECT_THROW(parse_routing_table("B E 1.2.3.0/24 banana\n"), ParseError);
}

TEST(TableIo, RoundTripThroughText) {
  // Simulate, render every FIB to device text, parse it back, resolve next
  // hops, and require exact equality — the full puller path.
  const auto topology = topo::build_figure3();
  const BgpSimulator sim(topology);
  for (const topo::Device& device : topology.devices()) {
    const ForwardingTable original = sim.fib(device.id);
    const std::string text = write_routing_table(original);
    const ForwardingTable reparsed =
        to_forwarding_table(parse_routing_table(text), topology);
    EXPECT_EQ(original, reparsed) << device.name;
  }
}

TEST(TableIo, ResolveRejectsUnknownNextHop) {
  ParsedRoutingTable parsed;
  parsed.routes.push_back(ParsedRoute{
      .prefix = net::Prefix::default_route(),
      .connected = false,
      .via = {net::Ipv4Address::parse("192.0.2.1")}});
  const auto topology = topo::build_figure3();
  EXPECT_THROW(to_forwarding_table(parsed, topology), ParseError);
}

// A device listing one prefix twice is read as add() would read it: the
// later route replaces the earlier one.
TEST(TableIo, DuplicatePrefixKeepsTheLastRoute) {
  const char* text =
      "B E 10.0.0.0/24 [200/0] via 172.16.0.1\n"
      "B E 0.0.0.0/0 [200/0] via 172.16.0.3\n"
      "B E 10.0.0.0/24 [200/0] via 172.16.0.2\n"
      "                      via 172.16.0.1\n";
  const auto topology = topo::build_figure3();
  const ForwardingTable fib =
      to_forwarding_table(parse_routing_table(text), topology);
  ASSERT_EQ(fib.size(), 2u);
  EXPECT_EQ(fib.find(net::Prefix::parse("10.0.0.0/24"))->next_hops,
            (std::vector<topo::DeviceId>{0, 1}));
  EXPECT_EQ(fib.rules()[1].prefix, net::Prefix::default_route());
}

TEST(TableIo, DropRouteRenders) {
  ForwardingTable fib;
  fib.add(Rule{.prefix = net::Prefix::parse("10.0.0.0/24"), .next_hops = {}});
  const std::string text = write_routing_table(fib);
  EXPECT_NE(text.find("drop"), std::string::npos);
  const ParsedRoutingTable parsed = parse_routing_table(text);
  ASSERT_EQ(parsed.routes.size(), 1u);
  EXPECT_TRUE(parsed.routes[0].via.empty());
}

}  // namespace
}  // namespace dcv::routing
