#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dcbench {

namespace {

constexpr std::size_t kKeptFailures = 8;

bool labels_match(const dcv::obs::Labels& have, const dcv::obs::Labels& want) {
  return std::all_of(want.begin(), want.end(), [&](const auto& label) {
    return std::find(have.begin(), have.end(), label) != have.end();
  });
}

const dcv::obs::MetricsRegistry::Metric* find_metric(
    const dcv::obs::MetricsRegistry* registry,
    const std::vector<dcv::obs::MetricsRegistry::Metric>& metrics,
    std::string_view name, const dcv::obs::Labels& labels) {
  if (registry == nullptr) return nullptr;
  for (const auto& metric : metrics) {
    if (metric.name == name && labels_match(metric.labels, labels)) {
      return &metric;
    }
  }
  return nullptr;
}

}  // namespace

double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double Tracer::total_ms(std::string_view name) const {
  const std::lock_guard lock(mutex_);
  const auto it = total_ms_.find(name);
  return it == total_ms_.end() ? 0.0 : it->second;
}

void Tracer::reset_totals() {
  const std::lock_guard lock(mutex_);
  total_ms_.clear();
}

void Tracer::add(const char* name, double ms) {
  const std::lock_guard lock(mutex_);
  total_ms_[name] += ms;
}

Tracer::Span::Span(Tracer& tracer, const char* name)
    : tracer_(&tracer), name_(name) {
  if (tracer.enabled()) span_.emplace(name, nullptr, tracer.ring());
  start_ = Clock::now();
}

double Tracer::Span::stop() {
  if (stopped_) return ms_;
  stopped_ = true;
  ms_ = ms_between(start_, Clock::now());
  if (span_) {
    span_->stop();
    tracer_->add(name_, ms_);
  }
  return ms_;
}

void Measurement::count(const std::string& error) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  if (failures.size() < kKeptFailures) failures.push_back(error);
}

void Measurement::add_counts(Measurement&& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (std::string& failure : other.failures) {
    if (failures.size() < kKeptFailures) failures.push_back(std::move(failure));
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

HistogramWindow::HistogramWindow(const dcv::obs::MetricsRegistry* registry,
                                 std::string_view name,
                                 const dcv::obs::Labels& labels) {
  if (registry == nullptr) return;
  const auto metrics = registry->collect();
  if (const auto* metric = find_metric(registry, metrics, name, labels)) {
    histogram_ = metric->histogram;
  }
  start();
}

void HistogramWindow::start() {
  if (histogram_ == nullptr) return;
  count0_ = histogram_->count();
  sum0_ = histogram_->sum();
}

double HistogramWindow::count() const {
  return histogram_ == nullptr
             ? 0.0
             : static_cast<double>(histogram_->count() - count0_);
}

double HistogramWindow::sum() const {
  return histogram_ == nullptr
             ? 0.0
             : static_cast<double>(histogram_->sum() - sum0_);
}

double HistogramWindow::mean() const {
  const double n = count();
  return n == 0.0 ? 0.0 : sum() / n;
}

CounterWindow::CounterWindow(const dcv::obs::MetricsRegistry* registry,
                             std::string_view name,
                             const dcv::obs::Labels& labels) {
  if (registry == nullptr) return;
  const auto metrics = registry->collect();
  if (const auto* metric = find_metric(registry, metrics, name, labels)) {
    counter_ = metric->counter;
  }
  start();
}

void CounterWindow::start() {
  if (counter_ != nullptr) value0_ = counter_->value();
}

double CounterWindow::value() const {
  return counter_ == nullptr
             ? 0.0
             : static_cast<double>(counter_->value() - value0_);
}

void add_op_split(const Tracer& tracer, std::size_t ops,
                  std::initializer_list<const char*> children,
                  Measurement& out) {
  const double n = static_cast<double>(std::max<std::size_t>(1, ops));
  const double op_ms = tracer.total_ms("op") / n;
  double covered = 0.0;
  for (const char* child : children) {
    const double ms = tracer.total_ms(child) / n;
    out.layers[std::string(child) + "_ms"] = ms;
    out.split.push_back(std::string(child) + "_ms");
    covered += ms;
  }
  out.layers["trace.op_ms"] = op_ms;
  out.layers["unattributed_ms"] = op_ms - covered;
  out.split.push_back("unattributed_ms");
}

std::string fabric_json(const dcv::topo::ClosParams& params) {
  return "{\"clusters\": " + std::to_string(params.clusters) +
         ", \"tors_per_cluster\": " + std::to_string(params.tors_per_cluster) +
         ", \"leaves_per_cluster\": " +
         std::to_string(params.leaves_per_cluster) +
         ", \"spines_per_plane\": " + std::to_string(params.spines_per_plane) +
         ", \"regional_spines\": " + std::to_string(params.regional_spines) +
         "}";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace dcbench
