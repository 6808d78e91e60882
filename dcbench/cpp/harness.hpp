// Shared pieces of the dcbench binary: the layer tracer, the per-run
// measurement record, registry readers, and the workload interface.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "topology/clos_builder.hpp"

namespace dcbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_between(Clock::time_point start, Clock::time_point end);

/// Spans the benchmark records around the program's public calls. Span
/// names are "<module>.<call>" (e.g. "routing.converge"); the op itself is
/// "op". Every span is timed; only a traced run (non-null ring) records it
/// into the trace ring and sums its duration by name.
class Tracer {
 public:
  explicit Tracer(dcv::obs::TraceRing* ring = nullptr) : ring_(ring) {}

  [[nodiscard]] bool enabled() const { return ring_ != nullptr; }
  [[nodiscard]] dcv::obs::TraceRing* ring() const { return ring_; }

  /// Summed duration of every stopped span with this name.
  [[nodiscard]] double total_ms(std::string_view name) const;
  /// Forgets the sums (set-up spans stay in the ring).
  void reset_totals();

  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { stop(); }

    /// Ends the span (once) and returns its duration in milliseconds.
    double stop();

   private:
    Tracer* tracer_;
    const char* name_;
    std::optional<dcv::obs::Span> span_;
    Clock::time_point start_;
    double ms_ = 0.0;
    bool stopped_ = false;
  };

 private:
  void add(const char* name, double ms);

  dcv::obs::TraceRing* ring_;
  mutable std::mutex mutex_;
  std::map<std::string, double, std::less<>> total_ms_;
};

/// Everything one run measures. Latencies are per request class; `work`
/// over `busy_s` is throughput_per_s.
struct Measurement {
  std::vector<double> latency_ms;        // primary class
  std::vector<double> check_latency_ms;  // read-only check class
  double work = 0.0;
  double busy_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  std::map<std::string, double> layers;
  /// Per-layer metrics that add up to "trace.op_ms", in op order.
  std::vector<std::string> split;

  /// Counts one attempted op; a non-empty `error` also counts it failed.
  void count(const std::string& error);
  /// Adds another record's attempted/failed counts and failures.
  void add_counts(Measurement&& other);
};

/// Linear-interpolated percentile (q in [0, 1]); 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Reads one histogram of a registry over a window: start() marks the
/// beginning, the accessors report what was observed since.
class HistogramWindow {
 public:
  HistogramWindow() = default;
  HistogramWindow(const dcv::obs::MetricsRegistry* registry,
                  std::string_view name, const dcv::obs::Labels& labels = {});

  void start();
  [[nodiscard]] double count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;

 private:
  const dcv::obs::Histogram* histogram_ = nullptr;
  std::uint64_t count0_ = 0;
  std::uint64_t sum0_ = 0;
};

/// Same for a counter.
class CounterWindow {
 public:
  CounterWindow() = default;
  CounterWindow(const dcv::obs::MetricsRegistry* registry,
                std::string_view name, const dcv::obs::Labels& labels = {});

  void start();
  [[nodiscard]] double value() const;

 private:
  const dcv::obs::Counter* counter_ = nullptr;
  std::uint64_t value0_ = 0;
};

/// Program hooks handed to a traced instance; both null when untraced.
struct Hooks {
  dcv::obs::MetricsRegistry* metrics = nullptr;
  dcv::obs::TraceRing* trace = nullptr;
};

/// Ordered "key": <json value> pairs describing a run's inputs.
using Inputs = std::vector<std::pair<std::string, std::string>>;

/// One set-up workload instance. Construction (by WorkloadSpec::make)
/// builds the system and finishes the fixed warm-up.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Fabric shape, device and contract counts, request pools.
  virtual void describe(Inputs& inputs) const = 0;
  /// Runs timed ops until `deadline`.
  virtual void measure(Clock::time_point deadline, Tracer& tracer,
                       Measurement& out) = 0;
  /// Correctness checks that run after the timed loop, outside timing.
  virtual void finish(Measurement& out) { (void)out; }
  /// Per-layer metrics of a traced measure().
  virtual void layers(const Tracer& tracer, Measurement& out) = 0;
};

struct WorkloadSpec {
  std::string name;
  /// Compute threads that can be busy at once, and client connections.
  unsigned threads = 0;
  unsigned connections = 0;
  /// When non-zero, the whole run (every thread it starts) is pinned to
  /// this many of the CPUs it may use; 0 leaves it on all of them.
  unsigned pinned_cpus = 0;
  Inputs budget;  // every thread and connection count, for the record
  std::function<std::unique_ptr<Workload>(std::uint64_t seed, Hooks hooks,
                                          Tracer& tracer, Measurement& out)>
      make;
};

[[nodiscard]] WorkloadSpec drift_spec();
[[nodiscard]] WorkloadSpec gate_spec();

/// Op split of a traced run: the mean op wall time ("trace.op_ms"), each
/// child span's mean time per op ("<child>_ms"), and the remainder no child
/// covers ("unattributed_ms").
void add_op_split(const Tracer& tracer, std::size_t ops,
                  std::initializer_list<const char*> children,
                  Measurement& out);

/// A fabric shape as a JSON object, for the inputs record.
[[nodiscard]] std::string fabric_json(const dcv::topo::ClosParams& params);

[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(std::string_view text);

}  // namespace dcbench
