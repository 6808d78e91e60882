// Tool host shared by every command-line front end in tools/.
//
// Each tool declares its flags once, in a table of typed rows; the host
// parses argv against it, checks every value, and generates --help from the
// same rows. It also owns what every main needs besides: reading an input
// file, writing an output atomically, the SIGINT/SIGTERM stop flag, and the
// metrics dump.
//
// Exit codes shared by the tools: 0 success; 1 runtime failure (unreadable
// input, failed write, malformed file content); 2 command-line misuse
// (unknown flag, missing or malformed value); 3 violations found or a check
// rejected; 4 degraded completion (coverage lost for good).
#pragma once

#include <array>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dcv::obs {
class MetricsRegistry;
}
namespace dcv::rcdc {
struct FlakyConfig;
}

namespace dcv::cli {

/// One row of a tool's flag table: a flag and its typed target, or, with an
/// empty name, a section header of the generated usage.
struct Flag {
  std::string name;         ///< "--topology"; empty for a section header
  std::string placeholder;  ///< "FILE"; empty for a switch
  std::string help;         ///< one paragraph; usage() wraps it
  /// Stores one value into the target; returns "" or what the flag wants
  /// instead ("an integer in [0, 65535]"). A switch is handed "".
  std::function<std::string(std::string_view)> store;
  bool required = false;
  bool* given = nullptr;  ///< set to true whenever the flag appears

  /// Makes the flag mandatory; the usage synopsis names it.
  [[nodiscard]] Flag require() &&;
  /// Also sets `seen` whenever the flag appears (rows may share one).
  [[nodiscard]] Flag marks(bool& seen) &&;
};

[[nodiscard]] Flag section(std::string title);
[[nodiscard]] Flag text(std::string name, std::string placeholder,
                        std::string& out, std::string help);
/// Repeatable: every occurrence appends its value.
[[nodiscard]] Flag list(std::string name, std::string placeholder,
                        std::vector<std::string>& out, std::string help);
/// A switch that sets `out` to `value`.
[[nodiscard]] Flag toggle(std::string name, bool& out, std::string help,
                          bool value = true);
/// A finite number in [0, max]; with max 1, a rate.
[[nodiscard]] Flag real(std::string name, std::string placeholder,
                        double& out, std::string help,
                        double max = std::numeric_limits<double>::max());
/// One of `choices` (which must outlive the row), stored as text.
[[nodiscard]] Flag choice(std::string name, std::string placeholder,
                          std::string& out,
                          std::span<const std::string_view> choices,
                          std::string help);
/// An unsigned integer in [min, max], handed to `store`.
[[nodiscard]] Flag whole(std::string name, std::string placeholder,
                         std::string help, std::uint64_t min,
                         std::uint64_t max,
                         std::function<void(std::uint64_t)> store);

/// An unsigned integer in [min, max], max defaulting to what `T` holds; a
/// TCP port is a count into std::uint16_t (0 asks for an ephemeral port).
template <std::unsigned_integral T>
[[nodiscard]] Flag count(std::string name, std::string placeholder, T& out,
                         std::string help, std::uint64_t min = 0,
                         std::uint64_t max = std::numeric_limits<T>::max()) {
  return whole(std::move(name), std::move(placeholder), std::move(help), min,
               max, [&out](std::uint64_t n) { out = static_cast<T>(n); });
}

/// A whole number of `Unit`s (say std::chrono::milliseconds), bounded to
/// half the target's range so adding it to a clock reading cannot overflow.
template <typename Unit, typename Rep, typename Period>
[[nodiscard]] Flag duration(std::string name,
                            std::chrono::duration<Rep, Period>& out,
                            std::string help) {
  const auto max = std::chrono::duration_cast<Unit>(
      std::chrono::duration<Rep, Period>::max() / 2);
  return whole(std::move(name), "N", std::move(help), 0,
               static_cast<std::uint64_t>(max.count()),
               [&out](std::uint64_t n) {
                 out = Unit(static_cast<typename Unit::rep>(n));
               });
}

/// The whole of `text` as an unsigned integer in [min, max], or nothing.
[[nodiscard]] std::optional<std::uint64_t> parse_unsigned(
    std::string_view text, std::uint64_t min, std::uint64_t max);

/// What matching a command line against a flag table found.
struct ParseResult {
  bool help = false;  ///< --help or -h came before any misuse
  std::string error;  ///< "<flag> …" on misuse, else empty
};

/// Matches `args` (argv without the program name) against `flags`, storing
/// each value as it goes. A flag given twice keeps its last value (a list
/// keeps every value).
[[nodiscard]] ParseResult parse_args(const std::vector<Flag>& flags,
                                     std::span<const std::string_view> args);

/// The synopsis (naming the required flags), then every row with its help
/// wrapped to 79 columns.
[[nodiscard]] std::string usage(std::string_view tool,
                                const std::vector<Flag>& flags);

/// A tool's entry point: parses argv against `flags` and remembers `tool`
/// for every later message. On --help prints the usage (to stderr) and
/// exits 0; on misuse prints "<tool>: <error>" and exits 2. Returns argv[0].
std::string parse(std::string_view tool, const std::vector<Flag>& flags,
                  int argc, char** argv);

/// Prints "<tool>: <message>" and exits 2: for misuse that shows only once
/// every flag is in.
[[noreturn]] void usage_error(std::string_view message);

/// Runs a tool's work and returns its exit code; an exception escaping it
/// prints "<tool>: <what>" and makes the code 1.
int run(const std::function<int()>& body);

/// The whole file, or prints "<tool>: cannot read <path>" and exits 1 (also
/// when `path` is a directory).
[[nodiscard]] std::string read_file(const std::string& path);

/// Writes a temp file beside `path` and renames it over `path`, so a reader
/// (or a run killed mid-write) sees the old file or the new one, never half
/// of one. On failure removes the temp file, prints "<tool>: cannot write
/// <path>" and returns false.
bool write_file_atomic(const std::string& path, std::string_view content);

/// Metrics dump formats: Prometheus text exposition, or JSON.
inline constexpr std::array<std::string_view, 2> kMetricsFormats = {"prom",
                                                                    "json"};

/// Writes `registry` in `format` (one of kMetricsFormats) through
/// write_file_atomic.
bool write_metrics(const obs::MetricsRegistry& registry,
                   const std::string& path, std::string_view format);

/// Routes SIGINT and SIGTERM to the stop flag.
void install_stop_handlers();
[[nodiscard]] bool stop_requested();

/// Sleeps for `wait` (duration::max(): until stopped), returning early on
/// a stop signal. `tick`, when set, runs before every short sleep slice,
/// and at least once.
void pause_for(std::chrono::steady_clock::duration wait,
               const std::function<void()>& tick = {});

/// The fault-injection rows that wrap a fetch layer in
/// rcdc::FlakyFibSource: five per-attempt rates and the schedule seed. Any
/// rate sets `enabled`.
[[nodiscard]] std::vector<Flag> flaky_flags(rcdc::FlakyConfig& config,
                                            bool& enabled);

}  // namespace dcv::cli
