// Change-gate service: precheck and NSG-check verdicts over the HTTP
// handler surface, concurrent prechecks serialized on the one warm session,
// the stale-epoch guard, and the differential guarantee that concurrent
// serving returns byte-identical answers to serialized evaluation.
#include "gate/gate_service.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "topology/clos_builder.hpp"

namespace dcv::gate {
namespace {

obs::HttpRequest post(std::string target, std::string body) {
  obs::HttpRequest request;
  request.method = "POST";
  request.target = std::move(target);
  request.body = std::move(body);
  return request;
}

constexpr const char* kGoodPlan = "change renumber ToR1\nset-asn ToR1 64900\n";
constexpr const char* kBadPlan = "change shut ToR1-A1\nshut-link ToR1 A1\n";

constexpr const char* kRestrictiveNsg =
    "priority,name,source,src_ports,destination,dst_ports,protocol,access\n"
    "4096,DenyAllInBound,Any,Any,Any,Any,Any,Deny\n";

class GateServiceTest : public testing::Test {
 protected:
  GateServiceTest() : topology_(topo::build_figure3()) {}

  topo::Topology topology_;
};

TEST_F(GateServiceTest, PrecheckVerdictsMatchTheChange) {
  GateService service(topology_);

  const auto approved = service.handle_precheck(post("/precheck", kGoodPlan));
  EXPECT_EQ(approved.status, 200);
  EXPECT_EQ(approved.body.rfind("decision: approved\n", 0), 0u)
      << approved.body;
  EXPECT_NE(approved.body.find("APPROVED renumber ToR1"), std::string::npos);

  const auto rejected = service.handle_precheck(post("/precheck", kBadPlan));
  EXPECT_EQ(rejected.status, 200);
  EXPECT_EQ(rejected.body.rfind("decision: rejected\n", 0), 0u);
  EXPECT_NE(rejected.body.find("REJECTED shut ToR1-A1"), std::string::npos);
  EXPECT_EQ(service.prechecks_served(), 2u);
}

TEST_F(GateServiceTest, BadPlansAnswer400WithoutTouchingTheEmulator) {
  GateService service(topology_);
  EXPECT_EQ(service.handle_precheck(post("/precheck", "")).status, 400);
  EXPECT_EQ(
      service.handle_precheck(post("/precheck", "change x\nset-asn Ghost 1\n"))
          .status,
      400);
  EXPECT_EQ(service.session().checks_run(), 0u);
  // The session still answers normal traffic.
  EXPECT_EQ(service.handle_precheck(post("/precheck", kGoodPlan)).status, 200);
}

TEST_F(GateServiceTest, StaleEpochAnswers409) {
  GateService service(topology_);
  topology_.set_asn(*topology_.find_device("ToR1"), 64999);  // epoch moves
  const auto response = service.handle_precheck(post("/precheck", kGoodPlan));
  EXPECT_EQ(response.status, 409);
  EXPECT_NE(response.body.find("stale gate"), std::string::npos);
}

TEST_F(GateServiceTest, NsgCheckRunsTheSecGuruGate) {
  GateService service(topology_);
  const auto rejected = service.handle_nsg_check(
      post("/nsg-check?vnet=customer&space=10.1.0.0/16&db=1",
           kRestrictiveNsg));
  EXPECT_EQ(rejected.status, 200);
  EXPECT_EQ(rejected.body.rfind("decision: rejected\n", 0), 0u)
      << rejected.body;
  EXPECT_NE(rejected.body.find("FAILED backup-"), std::string::npos);
  EXPECT_NE(rejected.body.find("witness"), std::string::npos);

  // Without a database instance the backup contracts don't apply.
  const auto accepted = service.handle_nsg_check(
      post("/nsg-check?vnet=customer&space=10.1.0.0/16&db=0",
           kRestrictiveNsg));
  EXPECT_EQ(accepted.body.rfind("decision: accepted\n", 0), 0u)
      << accepted.body;

  EXPECT_EQ(
      service.handle_nsg_check(post("/nsg-check", kRestrictiveNsg)).status,
      400);  // missing ?space=
  EXPECT_EQ(service
                .handle_nsg_check(
                    post("/nsg-check?space=10.1.0.0/16", "not,an,nsg\n"))
                .status,
            400);
  EXPECT_EQ(service.nsg_checks_served(), 2u);
}

TEST_F(GateServiceTest, GatezSummarizesServing) {
  GateService service(topology_);
  (void)service.handle_precheck(post("/precheck", kGoodPlan));
  const auto response = service.handle_gatez(obs::HttpRequest{});
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("prechecks served      1"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("nsg engines"), std::string::npos);
}

TEST_F(GateServiceTest, ConcurrentPrechecksAreAllServed) {
  GateService service(topology_);

  constexpr int kClients = 6;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const std::string plan = "change renumber ToR1 v" + std::to_string(i) +
                               "\nset-asn ToR1 " + std::to_string(64900 + i) +
                               "\n";
      if (service.handle_precheck(post("/precheck", plan)).status == 200) {
        ++ok;
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(ok.load(), kClients);
  EXPECT_EQ(service.prechecks_served(),
            static_cast<std::uint64_t>(kClients));
}

TEST_F(GateServiceTest, ConcurrentAnswersEqualSerializedAnswers) {
  // The ISSUE's correctness cross-check, at the service layer: the same
  // request mix answered (a) by concurrent callers and (b) one at a time
  // by a fresh gate must produce byte-identical bodies.
  std::vector<std::string> plans;
  plans.push_back(kGoodPlan);
  plans.push_back(kBadPlan);
  plans.push_back("change renumber ToR3\nset-asn ToR3 64901\n");
  plans.push_back("change down A2\ndown-link ToR2 A2\n");

  GateService concurrent(topology_);
  std::vector<std::string> concurrent_bodies(plans.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    clients.emplace_back([&, i] {
      concurrent_bodies[i] =
          concurrent.handle_precheck(post("/precheck", plans[i])).body;
    });
  }
  for (auto& client : clients) client.join();

  GateService serialized(topology_);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(concurrent_bodies[i],
              serialized.handle_precheck(post("/precheck", plans[i])).body)
        << plans[i];
  }
}

TEST_F(GateServiceTest, AttachServesOverRealSockets) {
  GateService service(topology_);
  obs::HttpServerConfig http_config;
  obs::HttpServer server(http_config);
  service.attach(server);
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string body = kGoodPlan;
  const std::string wire = "POST /precheck HTTP/1.1\r\nContent-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body;
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  std::string raw;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    raw.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(raw.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << raw;
  EXPECT_NE(raw.find("decision: approved"), std::string::npos) << raw;

  // The probe wrapper reads the attached server's saturation (idle -> the
  // inner verdict passes through untouched).
  const auto probe =
      service.wrap_probe([] { return obs::HealthSnapshot{}; }, 0.9);
  EXPECT_TRUE(probe().ready);
  server.stop();
}

}  // namespace
}  // namespace dcv::gate
