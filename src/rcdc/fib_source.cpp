#include "rcdc/fib_source.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "routing/table_io.hpp"

namespace dcv::rcdc {

std::string_view to_string(FetchErrorKind kind) {
  switch (kind) {
    case FetchErrorKind::kTimeout:
      return "timeout";
    case FetchErrorKind::kTransient:
      return "transient";
    case FetchErrorKind::kTruncatedTable:
      return "truncated-table";
    case FetchErrorKind::kCorruptedEntry:
      return "corrupted-entry";
    case FetchErrorKind::kUnreachable:
      return "unreachable";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, FetchErrorKind kind) {
  return os << to_string(kind);
}

routing::FibPtr FibSource::fetch(topo::DeviceId device) const {
  FetchOutcome outcome = try_fetch(device);
  if (outcome.has_table() && (outcome.ok() || outcome.stale)) {
    return std::move(outcome.table);
  }
  const FetchErrorKind kind =
      outcome.error.value_or(FetchErrorKind::kUnreachable);
  throw FetchError(kind, "fetch failed for device " + std::to_string(device) +
                             " after " + std::to_string(outcome.attempts) +
                             " attempts: " + std::string(to_string(kind)));
}

FetchOutcome AggregatingFibSource::try_fetch(topo::DeviceId device) const {
  FetchOutcome outcome = inner_->try_fetch(device);
  if (outcome.has_table()) {
    outcome.table = routing::share_fib(
        routing::aggregate_cluster_routes(*outcome.table, *metadata_, device));
  }
  return outcome;
}

FetchOutcome TableDirFibSource::try_fetch(topo::DeviceId device) const {
  const auto path = std::filesystem::path(directory_) /
                    (topology_->device(device).name + ".rt");
  std::ifstream in(path);
  if (!in) return FetchOutcome::failure(FetchErrorKind::kUnreachable);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return FetchOutcome::success(
        routing::share_fib(routing::to_forwarding_table(
            routing::parse_routing_table(text.str()), *topology_)));
  } catch (const ParseError&) {
    return FetchOutcome::failure(FetchErrorKind::kCorruptedEntry);
  }
}

}  // namespace dcv::rcdc
