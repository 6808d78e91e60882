// dcbench: the repository's benchmark program.
//
//   dcbench --workload drift|gate --seed N --seconds S --trace 0|1
//
// --trace 0 sets the workload up several times (setup_s is their median),
// then times ops for S seconds and prints the end-to-end metrics.
// --trace 1 times S/2 seconds untraced, then S/2 seconds with spans and the
// program's metrics/trace hooks on, and prints the per-layer metrics; it
// also writes .bench_out/<workload>-seed<N>.trace.json (Chrome trace-event
// JSON, loadable in Perfetto) and .bench_out/<workload>-seed<N>.layers.txt
// under the working directory.
//
// The last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A line before it starting with "# inputs" records the run's inputs.
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/export.hpp"
#include "obs/process_stats.hpp"

namespace {

using namespace dcbench;

constexpr int kSetups = 3;
constexpr std::size_t kTraceCapacity = 1 << 16;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match "per_layer" in BENCHMARK.json. A workload that does not
// exercise a layer reports 0 for it.
constexpr MetricDef kLayerMetrics[] = {
    {"trace.op_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"unattributed_ms", "ms"},
    {"topology.fault_ms", "ms"},
    {"routing.converge_ms", "ms"},
    {"routing.reconverge_ms", "ms"},
    {"routing.changed_devices", "count"},
    {"rcdc.contracts", "count"},
    {"rcdc.cycle_ms", "ms"},
    {"rcdc.fetch_ms", "ms"},
    {"rcdc.fingerprint_ms", "ms"},
    {"rcdc.queue_wait_ms", "ms"},
    {"rcdc.devices_fetched", "count"},
    {"rcdc.devices_revalidated", "count"},
    {"rcdc.useful_fetch_ratio", "ratio"},
    {"rcdc.verify_ms", "ms"},
    {"trie.rules_walked", "count"},
    {"gate.precheck_revalidated", "count"},
    {"gate.precheck_skip_ratio", "ratio"},
    {"obs.http_handler_ms.precheck", "ms"},
    {"obs.http_handler_ms.nsg", "ms"},
    {"obs.http_overhead_ms.nsg", "ms"},
    {"secguru.check_us", "us"},
    {"secguru.fastpath_ratio", "ratio"},
};

constexpr const char* kOutDir = ".bench_out";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "dcbench: %s\nusage: dcbench --workload drift|gate "
               "--seed N --seconds S --trace 0|1\n",
               problem.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

unsigned cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return 1;
}

/// Pins the calling thread, and so every thread it starts later, to the
/// last `count` CPUs it may use. Returns false if that fails.
bool pin_to_cpus(unsigned count) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && count > 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      --count;
    }
  }
  return count == 0 && sched_setaffinity(0, sizeof(pinned), &pinned) == 0;
}

/// CPU time the hypervisor gave to other guests ("steal") and all CPU time
/// of this machine so far, in clock ticks, from the first line of /proc/stat.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(stat >> value)) return CpuTicks{};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

/// Share of the machine's CPU time stolen by the host since `start`. Wall
/// times grow with it; the inputs record keeps it so that noisy runs can
/// be told apart from slow code.
double steal_share_since(const CpuTicks& start) {
  const CpuTicks now = read_cpu_ticks();
  const double total = now.total - start.total;
  return total > 0.0 ? (now.steal - start.steal) / total : 0.0;
}

/// Returns freed heap pages to the kernel so that a torn-down instance does
/// not inflate the next one's resident set (and peak_rss_bytes) by however
/// much the allocator happened to keep.
void release_freed_memory() { malloc_trim(0); }

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

void print_failures(const Measurement& m) {
  for (const std::string& failure : m.failures) {
    std::fprintf(stderr, "dcbench: FAILED %s\n", failure.c_str());
  }
}

void print_distribution(const char* label, const std::vector<double>& ms) {
  std::fprintf(stderr, "dcbench: %s n=%zu ms:", label, ms.size());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    std::fprintf(stderr, " p%g=%.4g", 100 * q, percentile(ms, q));
  }
  std::fputc('\n', stderr);
}

/// Self-time table of a traced run: the op split rows add up to the op's
/// mean wall time; every per-layer metric follows.
std::string layer_table(const std::string& workload, const Measurement& m) {
  std::string out = "per-layer split of one " + workload + " op (traced, " +
                    std::to_string(m.latency_ms.size()) + " ops)\n";
  char line[160];
  const double op_ms = m.layers.at("trace.op_ms");
  double sum = 0.0;
  for (const std::string& name : m.split) {
    const double ms = m.layers.at(name);
    sum += ms;
    std::snprintf(line, sizeof(line), "  %-32s %12.4f ms  %6.2f%%\n",
                  name.c_str(), ms, op_ms > 0.0 ? 100.0 * ms / op_ms : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  %-32s %12.4f ms  (op wall %.4f ms)\n", "sum", sum, op_ms);
  out += line;
  out += "per-layer metrics\n";
  for (const MetricDef& def : kLayerMetrics) {
    const auto it = m.layers.find(def.name);
    std::snprintf(line, sizeof(line), "  %-32s %16.6g %s\n", def.name,
                  it == m.layers.end() ? 0.0 : it->second, def.unit);
    out += line;
  }
  return out;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary);
  file << text;
  if (!file) std::fprintf(stderr, "dcbench: cannot write %s\n", path.c_str());
}

std::string metric_json(const char* name, double value, const char* unit) {
  return json_string(name) + ": {\"value\": " + json_number(value) +
         ", \"unit\": " + json_string(unit) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  std::vector<WorkloadSpec> specs = {drift_spec(), gate_spec()};
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : specs) {
    if (candidate.name == options.workload) spec = &candidate;
  }
  if (spec == nullptr) usage("unknown workload " + options.workload);

  const unsigned nproc = cpu_count();
  if (spec->threads + spec->connections > nproc) {
    std::fprintf(stderr,
                 "dcbench: %s needs %u threads + %u connections but only %u "
                 "CPUs are available; refusing to run\n",
                 spec->name.c_str(), spec->threads, spec->connections, nproc);
    return 3;
  }

  if (spec->pinned_cpus > 0 && !pin_to_cpus(spec->pinned_cpus)) {
    std::fprintf(stderr, "dcbench: cannot pin %s to %u CPUs\n",
                 spec->name.c_str(), spec->pinned_cpus);
    return 3;
  }

  Inputs inputs = {{"workload", json_string(spec->name)},
                   {"seed", std::to_string(options.seed)},
                   {"nproc", json_number(nproc)},
                   {"pinned_cpus", json_number(spec->pinned_cpus)},
                   {"seconds", json_number(options.seconds)},
                   {"trace", options.trace ? "1" : "0"}};
  inputs.insert(inputs.end(), spec->budget.begin(), spec->budget.end());

  Measurement result;
  std::vector<std::string> metrics;
  Tracer untraced;
  if (!options.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Workload> workload;
    for (int i = 0; i < kSetups; ++i) {
      workload.reset();
      release_freed_memory();
      const auto start = Clock::now();
      workload = spec->make(options.seed, Hooks{}, untraced, result);
      setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
    }
    workload->describe(inputs);
    const CpuTicks ticks = read_cpu_ticks();
    workload->measure(after(options.seconds), untraced, result);
    inputs.emplace_back("host_steal_share",
                        json_number(steal_share_since(ticks)));
    workload->finish(result);
    workload.reset();

    metrics = {
        metric_json("latency_ms.p50", percentile(result.latency_ms, 0.5),
                    "ms"),
        metric_json("latency_ms.p90", percentile(result.latency_ms, 0.9),
                    "ms"),
        metric_json("check_latency_ms.p50",
                    percentile(result.check_latency_ms, 0.5), "ms"),
        metric_json("throughput_per_s",
                    result.busy_s > 0.0 ? result.work / result.busy_s : 0.0,
                    "1/s"),
        metric_json("peak_rss_bytes",
                    static_cast<double>(
                        dcv::obs::read_process_stats().peak_rss_bytes),
                    "bytes"),
        metric_json("setup_s", percentile(setup_s, 0.5), "s"),
    };
    inputs.emplace_back("ops", json_number(result.latency_ms.size()));
    inputs.emplace_back("check_ops",
                        json_number(result.check_latency_ms.size()));
  } else {
    const double half = options.seconds / 2.0;
    Measurement plain;
    {
      const std::unique_ptr<Workload> workload =
          spec->make(options.seed, Hooks{}, untraced, plain);
      workload->measure(after(half), untraced, plain);
      workload->finish(plain);
    }
    release_freed_memory();

    dcv::obs::MetricsRegistry registry;
    dcv::obs::TraceRing ring(kTraceCapacity);
    Tracer traced(&ring);
    {
      const std::unique_ptr<Workload> workload = spec->make(
          options.seed, Hooks{.metrics = &registry, .trace = &ring}, traced,
          result);
      workload->describe(inputs);
      traced.reset_totals();
      const CpuTicks ticks = read_cpu_ticks();
      workload->measure(after(half), traced, result);
      inputs.emplace_back("host_steal_share",
                          json_number(steal_share_since(ticks)));
      workload->finish(result);
      workload->layers(traced, result);
    }
    const double plain_p50 = percentile(plain.latency_ms, 0.5);
    result.layers["trace.overhead_ratio"] =
        plain_p50 > 0.0 ? percentile(result.latency_ms, 0.5) / plain_p50
                        : 0.0;
    inputs.emplace_back("ops", json_number(result.latency_ms.size()));
    inputs.emplace_back("untraced_ops", json_number(plain.latency_ms.size()));
    inputs.emplace_back("spans_recorded", json_number(ring.recorded()));
    inputs.emplace_back("spans_dropped", json_number(ring.dropped()));
    result.add_counts(std::move(plain));

    const std::string table = layer_table(spec->name, result);
    std::fputs(table.c_str(), stderr);
    std::error_code ec;
    std::filesystem::create_directories(kOutDir, ec);
    const std::string stem = std::string(kOutDir) + "/" + spec->name +
                             "-seed" + std::to_string(options.seed);
    write_file(stem + ".trace.json", dcv::obs::write_chrome_trace(ring));
    write_file(stem + ".layers.txt", table);
    for (const MetricDef& def : kLayerMetrics) {
      const auto it = result.layers.find(def.name);
      metrics.push_back(metric_json(
          def.name, it == result.layers.end() ? 0.0 : it->second, def.unit));
    }
  }
  print_distribution("latency", result.latency_ms);
  print_distribution("check latency", result.check_latency_ms);
  print_failures(result);

  std::string line = "# inputs {";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    line += (i == 0 ? "" : ", ") + json_string(inputs[i].first) + ": " +
            inputs[i].second;
  }
  std::printf("%s}\n", line.c_str());

  line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted) +
          ", \"failed\": " + std::to_string(result.failed) +
          ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "" : ", ") + metrics[i];
  }
  std::printf("%s}}\n", line.c_str());
  return 0;
}
