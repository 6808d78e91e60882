// gate: the change gate (§2.7, §3.4) behind its HTTP server on loopback,
// under a closed loop of one caller that waits for each reply. 70% of
// requests are POST /precheck with a seeded single-link plan (the primary
// class); 30% are POST /nsg-check with a seeded NSG table (the check
// class).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <string>

#include "gate/gate_service.hpp"
#include "harness.hpp"
#include "obs/http_server.hpp"
#include "rcdc/contract_gen.hpp"
#include "topology/metadata.hpp"

namespace dcbench {

namespace {

namespace topo = dcv::topo;
namespace obs = dcv::obs;

// One caller on one connection, served by one HTTP worker: with two of
// each the busy threads reached nproc and the gate's times followed host
// steal and competing load (see README.md, Steadiness).
constexpr unsigned kHttpWorkers = 1;
constexpr unsigned kConnections = 1;
constexpr unsigned kPrecheckThreads = 1;
constexpr std::size_t kNsgEngines = 1;
// Caller, event loop, HTTP worker and the precheck simulator's pool all
// share one CPU. Every hand-off of a request then goes to a thread on a
// CPU that is already running instead of waking an idle virtual CPU, a
// wake whose cost depends on the host (see README.md, Steadiness).
constexpr unsigned kPinnedCpus = 1;
// With a single caller no second precheck can ever join a batch, so the
// coalescing window would only add a timed sleep to every precheck.
constexpr std::chrono::milliseconds kBatchWindow{0};
constexpr std::size_t kTorLeafPlans = 48;
constexpr std::size_t kLeafSpinePlans = 16;
constexpr std::size_t kNsgTables = 16;
constexpr int kNsgRules = 300;
// Every round of the caller's schedule serves each plan once and an NSG
// table kNsgPerRound times (64 : 28, 70% prechecks), in a seeded order.
constexpr std::size_t kNsgPerRound = 28;
// Set-up ends with one full round, so every seed warms up on the same mix.
constexpr std::size_t kWarmupRequests = kTorLeafPlans + kLeafSpinePlans +
                                        kNsgPerRound;

/// One blocking request on a fresh connection (the server closes every
/// connection after its response); returns the raw response, "" on error.
std::string http_request(std::uint16_t port, const std::string& wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  const timeval timeout{.tv_sec = 30, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(wire.size())) {
    ::close(fd);
    return "";
  }
  std::string raw;
  char buffer[8192];
  ssize_t n = 0;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    raw.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return raw;
}

int status_of(const std::string& raw) {
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || raw.size() < 12) return 0;
  return std::atoi(raw.substr(9, 3).c_str());
}

std::string body_of(const std::string& raw) {
  const auto split = raw.find("\r\n\r\n");
  return split == std::string::npos ? "" : raw.substr(split + 4);
}

std::string post_wire(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

topo::ClosParams fabric() {
  return topo::ClosParams{.clusters = 12,
                          .tors_per_cluster = 16,
                          .leaves_per_cluster = 6,
                          .spines_per_plane = 2,
                          .regional_spines = 4};
}

/// Distinct single-link plans on seeded links: kTorLeafPlans on ToR-leaf
/// links and kLeafSpinePlans on leaf-spine links, half of each shut and
/// half down. The fixed split keeps the pool's cost the same for every
/// seed.
std::vector<std::string> make_plans(const topo::Topology& topology,
                                    std::mt19937_64& rng) {
  std::vector<topo::LinkId> tor_leaf;
  std::vector<topo::LinkId> leaf_spine;
  for (const topo::Link& link : topology.links()) {
    const topo::DeviceRole a = topology.device(link.a).role;
    const topo::DeviceRole b = topology.device(link.b).role;
    const auto is = [&](topo::DeviceRole x, topo::DeviceRole y) {
      return (a == x && b == y) || (a == y && b == x);
    };
    if (is(topo::DeviceRole::kTor, topo::DeviceRole::kLeaf)) {
      tor_leaf.push_back(link.id);
    } else if (is(topo::DeviceRole::kLeaf, topo::DeviceRole::kSpine)) {
      leaf_spine.push_back(link.id);
    }
  }
  std::vector<std::string> plans;
  const auto draw = [&](std::vector<topo::LinkId>& links, std::size_t count) {
    std::shuffle(links.begin(), links.end(), rng);
    for (std::size_t i = 0; i < count && i < links.size(); ++i) {
      const topo::Link& link = topology.link(links[i]);
      const std::string op = i % 2 == 0 ? "shut-link" : "down-link";
      const std::string& a = topology.device(link.a).name;
      const std::string& b = topology.device(link.b).name;
      plans.push_back("change " + op + " " + a + "-" + b + "\n" + op + " " +
                      a + " " + b + "\n");
    }
  };
  draw(tor_leaf, kTorLeafPlans);
  draw(leaf_spine, kLeafSpinePlans);
  return plans;
}

struct NsgRequest {
  std::string target;
  std::string body;
};

/// NSG tables of a few hundred seeded rules over a /16 vnet holding a
/// database, so the gate checks the backup contracts. Every other table
/// shadows the backup service with an early deny and is rejected.
std::vector<NsgRequest> make_nsg_tables(std::mt19937_64& rng) {
  std::vector<NsgRequest> tables;
  const auto random_prefix = [&](int base_octet) {
    const int length = 16 + static_cast<int>(rng() % 13);
    const std::uint32_t address =
        (static_cast<std::uint32_t>(base_octet) << 24) |
        (static_cast<std::uint32_t>(rng()) & 0x00ffffffu);
    const std::uint32_t mask =
        length == 0 ? 0 : ~std::uint32_t{0} << (32 - length);
    const std::uint32_t net = address & mask;
    return std::to_string(net >> 24) + "." +
           std::to_string((net >> 16) & 255) + "." +
           std::to_string((net >> 8) & 255) + "." + std::to_string(net & 255) +
           "/" + std::to_string(length);
  };
  const auto random_ports = [&] {
    if (rng() % 3 == 0) return std::string("Any");
    const int lo = 1 + static_cast<int>(rng() % 60000);
    return std::to_string(lo) + "-" +
           std::to_string(lo + static_cast<int>(rng() % 2000));
  };
  const char* protocols[] = {"Tcp", "Udp", "Any"};
  for (std::size_t t = 0; t < kNsgTables; ++t) {
    const int octet = 1 + static_cast<int>(t);
    const std::string space = "10." + std::to_string(octet) + ".0.0/16";
    std::string body =
        "priority,name,source,src_ports,destination,dst_ports,protocol,"
        "access\n";
    if (t % 2 == 0) {
      body += "100,DenyBackup,168.63.129.0/24,Any,Any,Any,Any,Deny\n";
    }
    for (int r = 0; r < kNsgRules; ++r) {
      const bool inbound = rng() % 2 == 0;
      const std::string peer = rng() % 4 == 0 ? "Internet" : random_prefix(10);
      body += std::to_string(200 + r) + ",R" + std::to_string(r) + "," +
              (inbound ? peer : space) + "," + random_ports() + "," +
              (inbound ? space : peer) + "," + random_ports() + "," +
              protocols[rng() % 3] + "," + (rng() % 3 == 0 ? "Deny" : "Allow") +
              "\n";
    }
    body += "4000,AllowBackupControl,168.63.129.0/24,Any," + space +
            ",1433-1434,Tcp,Allow\n";
    body += "4001,AllowBackupData," + space +
            ",Any,168.63.129.0/24,443,Tcp,Allow\n";
    body += "4096,DenyAll,Any,Any,Any,Any,Any,Deny\n";
    tables.push_back(NsgRequest{
        .target = "/nsg-check?vnet=v" + std::to_string(t) + "&space=" +
                  space + "&db=1",
        .body = std::move(body)});
  }
  return tables;
}

class Gate final : public Workload {
 public:
  Gate(std::uint64_t seed, Hooks hooks, Tracer& tracer, Measurement& out)
      : topology_(topo::build_clos(fabric())),
        service_(topology_,
                 dcv::gate::GateConfig{.precheck_threads = kPrecheckThreads,
                                       .batch_window = kBatchWindow,
                                       .nsg_engines = kNsgEngines,
                                       .metrics = hooks.metrics}),
        server_(obs::HttpServerConfig{.worker_threads = kHttpWorkers,
                                      .metrics = hooks.metrics}),
        seed_(seed),
        metrics_(hooks.metrics) {
    std::mt19937_64 rng(seed);
    plans_ = make_plans(topology_, rng);
    for (const std::string& plan : plans_) {
      plan_wires_.push_back(post_wire("/precheck", plan));
    }
    for (const NsgRequest& table : make_nsg_tables(rng)) {
      nsg_wires_.push_back(post_wire(table.target, table.body));
    }
    plan_bodies_.resize(plan_wires_.size());
    nsg_bodies_.resize(nsg_wires_.size());
    service_.attach(server_);
    server_.start();
    Measurement warmup;
    run_client(/*phase=*/0, Clock::time_point::max(), kWarmupRequests, tracer,
               warmup);
    out.add_counts(std::move(warmup));
  }

  void describe(Inputs& inputs) const override {
    inputs.emplace_back("fabric", fabric_json(fabric()));
    inputs.emplace_back("devices", json_number(topology_.device_count()));
    const topo::MetadataService metadata(topology_);
    inputs.emplace_back(
        "contracts",
        json_number(dcv::rcdc::ContractGenerator(metadata).plan()
                        ->total_contracts()));
    inputs.emplace_back("precheck_plans", json_number(plans_.size()));
    inputs.emplace_back("nsg_tables", json_number(nsg_wires_.size()));
    inputs.emplace_back("nsg_rules_per_table", json_number(kNsgRules));
    inputs.emplace_back("nsg_per_round", json_number(kNsgPerRound));
  }

  void measure(Clock::time_point deadline, Tracer& tracer,
               Measurement& out) override {
    handler_precheck_ = HistogramWindow(metrics_, "dcv_http_request_ns",
                                        {{"path", "/precheck"}});
    handler_nsg_ = HistogramWindow(metrics_, "dcv_http_request_ns",
                                   {{"path", "/nsg-check"}});
    secguru_check_ = HistogramWindow(metrics_, "dcv_secguru_check_ns");
    fastpath_ = CounterWindow(metrics_, "dcv_secguru_fastpath_hits_total");
    fallbacks_ = CounterWindow(metrics_, "dcv_secguru_smt_fallbacks_total");
    checks0_ = service_.session().checks_run();
    revalidated0_ = service_.session().devices_revalidated();
    skipped0_ = service_.session().devices_skipped();
    run_client(/*phase=*/1, deadline, SIZE_MAX, tracer, out);
  }

  void finish(Measurement& out) override {
    // Each plan's first served body must equal a direct in-process answer.
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      if (plan_bodies_[i].empty()) continue;
      obs::HttpRequest request;
      request.method = "POST";
      request.target = "/precheck";
      request.body = plans_[i];
      const obs::HttpResponse direct = service_.handle_precheck(request);
      out.count(direct.status == 200 && direct.body == plan_bodies_[i]
                    ? ""
                    : "plan " + std::to_string(i) +
                          " served body differs from the direct answer");
    }
  }

  void layers(const Tracer& tracer, Measurement& out) override {
    const auto per = [](double total, std::size_t n) {
      return n == 0 ? 0.0 : total / static_cast<double>(n);
    };
    const double op_ms = per(tracer.total_ms("op"), out.latency_ms.size());
    const double nsg_ms =
        per(tracer.total_ms("nsg_op"), out.check_latency_ms.size());
    const double handler_ms = handler_precheck_.mean() / 1e6;
    const double nsg_handler_ms = handler_nsg_.mean() / 1e6;
    out.layers["trace.op_ms"] = op_ms;
    // No span covers the time outside the server's handler accounting, so
    // the precheck's HTTP overhead (round trip - handler) is unattributed.
    out.layers["unattributed_ms"] = op_ms - handler_ms;
    out.layers["obs.http_handler_ms.precheck"] = handler_ms;
    out.layers["obs.http_handler_ms.nsg"] = nsg_handler_ms;
    out.layers["obs.http_overhead_ms.nsg"] = nsg_ms - nsg_handler_ms;
    out.split = {"obs.http_handler_ms.precheck", "unattributed_ms"};
    const dcv::rcdc::PrecheckSession& session = service_.session();
    const double checks =
        static_cast<double>(session.checks_run() - checks0_);
    const double revalidated =
        static_cast<double>(session.devices_revalidated() - revalidated0_);
    const double skipped =
        static_cast<double>(session.devices_skipped() - skipped0_);
    out.layers["gate.precheck_revalidated"] =
        checks == 0.0 ? 0.0 : revalidated / checks;
    out.layers["gate.precheck_skip_ratio"] =
        revalidated + skipped == 0.0 ? 0.0 : skipped / (revalidated + skipped);
    out.layers["secguru.check_us"] = secguru_check_.mean() / 1e3;
    const double decided = fastpath_.value() + fallbacks_.value();
    out.layers["secguru.fastpath_ratio"] =
        decided == 0.0 ? 0.0 : fastpath_.value() / decided;
  }

 private:
  /// Closed loop: the caller sends its next request only after the
  /// previous reply, until `deadline` or `max_requests`.
  void run_client(unsigned phase, Clock::time_point deadline,
                  std::size_t max_requests, Tracer& tracer, Measurement& out) {
    std::seed_seq seq{seed_, std::uint64_t{phase}};
    std::mt19937_64 rng(seq);
    // (is_precheck, index) pairs of one round.
    std::vector<std::pair<bool, std::size_t>> round;
    for (std::size_t i = 0; i < plan_wires_.size(); ++i) {
      round.emplace_back(true, i);
    }
    for (std::size_t i = 0; i < kNsgPerRound; ++i) {
      round.emplace_back(false, i % nsg_wires_.size());
    }
    std::size_t next = round.size();
    const auto start = Clock::now();
    for (std::size_t sent = 0; sent < max_requests && Clock::now() < deadline;
         ++sent) {
      if (next == round.size()) {
        std::shuffle(round.begin(), round.end(), rng);
        next = 0;
      }
      const auto [is_precheck, i] = round[next++];
      const std::string& wire = is_precheck ? plan_wires_[i] : nsg_wires_[i];

      Tracer::Span op(tracer, is_precheck ? "op" : "nsg_op");
      const std::string raw = http_request(server_.port(), wire);
      const double ms = op.stop();

      const int status = status_of(raw);
      std::string error;
      if (status != 200) {
        error = "status " + std::to_string(status) + " for " +
                (is_precheck ? "plan " : "nsg table ") + std::to_string(i);
      } else {
        std::string body = body_of(raw);
        std::string& first = is_precheck ? plan_bodies_[i] : nsg_bodies_[i];
        if (first.empty()) {
          first = std::move(body);
        } else if (first != body) {
          error = std::string(is_precheck ? "plan " : "nsg table ") +
                  std::to_string(i) + " answered differently";
        }
      }
      out.count(error);
      if (status == 200) out.work += 1.0;
      (is_precheck ? out.latency_ms : out.check_latency_ms).push_back(ms);
    }
    out.busy_s = std::chrono::duration<double>(Clock::now() - start).count();
  }

  topo::Topology topology_;
  dcv::gate::GateService service_;
  obs::HttpServer server_;
  std::uint64_t seed_;
  obs::MetricsRegistry* metrics_;
  std::vector<std::string> plans_;
  std::vector<std::string> plan_wires_;
  std::vector<std::string> nsg_wires_;
  std::vector<std::string> plan_bodies_;  // first body served per plan
  std::vector<std::string> nsg_bodies_;   // first body served per table
  std::uint64_t checks0_ = 0;
  std::uint64_t revalidated0_ = 0;
  std::uint64_t skipped0_ = 0;
  HistogramWindow handler_precheck_;
  HistogramWindow handler_nsg_;
  HistogramWindow secguru_check_;
  CounterWindow fastpath_;
  CounterWindow fallbacks_;
};

}  // namespace

WorkloadSpec gate_spec() {
  return WorkloadSpec{
      .name = "gate",
      // Requests run on the HTTP worker; the event loop only waits in
      // poll(). The precheck session's simulator reconverges on a
      // hardware-default pool the gate exposes no setting for; pinned,
      // that pool shares the one CPU.
      .threads = kHttpWorkers,
      .connections = kConnections,
      .pinned_cpus = kPinnedCpus,
      .budget = {{"http_workers", json_number(kHttpWorkers)},
                 {"precheck_threads", json_number(kPrecheckThreads)},
                 {"nsg_engines", json_number(kNsgEngines)},
                 {"connections", json_number(kConnections)},
                 {"batch_window_ms", json_number(kBatchWindow.count())}},
      .make = [](std::uint64_t seed, Hooks hooks, Tracer& tracer,
                 Measurement& out) -> std::unique_ptr<Workload> {
        return std::make_unique<Gate>(seed, hooks, tracer, out);
      }};
}

}  // namespace dcbench
