#include "cli.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "obs/export.hpp"
#include "rcdc/flaky_fib_source.hpp"

namespace dcv::cli {
namespace {

std::string g_tool = "tool";  // set by parse(), prefixed to every message
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "the stop flag is written from a signal handler");

void on_signal(int) { g_stop = true; }

/// Appends `text` greedily wrapped at `width` columns; continuation lines
/// start at column `indent`, where the first line is taken to start.
void wrap(std::string& out, std::string_view text, std::size_t indent,
          std::size_t width) {
  std::size_t column = indent;
  std::istringstream words{std::string(text)};
  for (std::string word; words >> word;) {
    if (column > indent && column + 1 + word.size() > width) {
      out += "\n" + std::string(indent, ' ');
      column = indent;
    } else if (column > indent) {
      out += ' ';
      ++column;
    }
    out += word;
    column += word.size();
  }
  out += '\n';
}

}  // namespace

Flag Flag::require() && {
  required = true;
  return std::move(*this);
}

Flag Flag::marks(bool& seen) && {
  given = &seen;
  return std::move(*this);
}

Flag section(std::string title) { return Flag{.help = std::move(title)}; }

Flag text(std::string name, std::string placeholder, std::string& out,
          std::string help) {
  return Flag{std::move(name), std::move(placeholder), std::move(help),
              [&out](std::string_view value) {
                out = value;
                return std::string();
              }};
}

Flag list(std::string name, std::string placeholder,
          std::vector<std::string>& out, std::string help) {
  return Flag{std::move(name), std::move(placeholder), std::move(help),
              [&out](std::string_view value) {
                out.emplace_back(value);
                return std::string();
              }};
}

Flag toggle(std::string name, bool& out, std::string help, bool value) {
  return Flag{std::move(name), "", std::move(help),
              [&out, value](std::string_view) {
                out = value;
                return std::string();
              }};
}

Flag real(std::string name, std::string placeholder, double& out,
          std::string help, double max) {
  const std::string wants =
      max == 1.0 ? "a rate in [0, 1]" : "a non-negative number";
  return Flag{std::move(name), std::move(placeholder), std::move(help),
              [&out, max, wants](std::string_view value) {
                double parsed = 0.0;
                const char* end = value.data() + value.size();
                const auto [ptr, ec] =
                    std::from_chars(value.data(), end, parsed);
                if (value.empty() || ec != std::errc{} || ptr != end ||
                    !std::isfinite(parsed) || parsed < 0.0 || parsed > max) {
                  return wants;
                }
                out = parsed;
                return std::string();
              }};
}

Flag choice(std::string name, std::string placeholder, std::string& out,
            std::span<const std::string_view> choices, std::string help) {
  std::string wants = "one of ";
  for (const std::string_view option : choices) {
    if (option != choices.front()) wants += '|';
    wants += option;
  }
  return Flag{std::move(name), std::move(placeholder), std::move(help),
              [&out, choices, wants](std::string_view value) {
                if (std::ranges::find(choices, value) == choices.end()) {
                  return wants;
                }
                out = value;
                return std::string();
              }};
}

Flag whole(std::string name, std::string placeholder, std::string help,
           std::uint64_t min, std::uint64_t max,
           std::function<void(std::uint64_t)> store) {
  const std::string wants = "an integer in [" + std::to_string(min) + ", " +
                            std::to_string(max) + "]";
  return Flag{std::move(name), std::move(placeholder), std::move(help),
              [min, max, wants, store = std::move(store)](std::string_view v) {
                const auto n = parse_unsigned(v, min, max);
                if (!n) return wants;
                store(*n);
                return std::string();
              }};
}

std::optional<std::uint64_t> parse_unsigned(std::string_view text,
                                            std::uint64_t min,
                                            std::uint64_t max) {
  std::uint64_t n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (text.empty() || ec != std::errc{} || ptr != end || n < min || n > max) {
    return std::nullopt;
  }
  return n;
}

ParseResult parse_args(const std::vector<Flag>& flags,
                       std::span<const std::string_view> args) {
  std::vector<bool> seen(flags.size(), false);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--help" || args[i] == "-h") return {.help = true};
    const auto flag = std::ranges::find_if(flags, [&](const Flag& f) {
      return !f.name.empty() && f.name == args[i];
    });
    if (flag == flags.end()) {
      return {.error =
                  std::string(args[i]) + " is not a known flag (see --help)"};
    }
    std::string_view value;
    if (!flag->placeholder.empty()) {
      if (++i == args.size()) return {.error = flag->name + " needs a value"};
      value = args[i];
    }
    if (const std::string wants = flag->store(value); !wants.empty()) {
      return {.error = flag->name + " wants " + wants + ", got '" +
                       std::string(value) + "'"};
    }
    if (flag->given != nullptr) *flag->given = true;
    seen[static_cast<std::size_t>(flag - flags.begin())] = true;
  }
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (flags[i].required && !seen[i]) {
      return {.error =
                  flags[i].name + " " + flags[i].placeholder + " is required"};
    }
  }
  return {};
}

std::string usage(std::string_view tool, const std::vector<Flag>& flags) {
  constexpr std::size_t kHelpColumn = 26;
  std::string out = "usage: " + std::string(tool);
  for (const Flag& flag : flags) {
    if (flag.required) out += " " + flag.name + " " + flag.placeholder;
  }
  out += " [options]\n";
  for (const Flag& flag : flags) {
    if (flag.name.empty()) {
      wrap(out, flag.help, 0, 79);
      continue;
    }
    std::string left = "  " + flag.name;
    if (!flag.placeholder.empty()) left += " " + flag.placeholder;
    // A name too long for the column puts its help on the next line.
    if (left.size() >= kHelpColumn) {
      out += left + "\n";
      left.clear();
    }
    out += left + std::string(kHelpColumn - left.size(), ' ');
    wrap(out, flag.help, kHelpColumn, 79);
  }
  return out;
}

std::string parse(std::string_view tool, const std::vector<Flag>& flags,
                  int argc, char** argv) {
  g_tool = tool;
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  const ParseResult result = parse_args(flags, args);
  if (result.help) {
    std::cerr << usage(tool, flags);
    std::exit(0);
  }
  if (!result.error.empty()) usage_error(result.error);
  return argv[0];
}

void usage_error(std::string_view message) {
  std::cerr << g_tool << ": " << message << "\n";
  std::exit(2);
}

int run(const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::exception& error) {
    std::cerr << g_tool << ": " << error.what() << "\n";
    return 1;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  // A directory opens as an empty stream; reading it as an empty topology
  // or plan would pass a gate vacuously.
  if (!in || std::filesystem::is_directory(path)) {
    std::cerr << g_tool << ": cannot read " << path << "\n";
    std::exit(1);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool write_file_atomic(const std::string& path, std::string_view content) {
  // One temp name per call: a periodic dump and the final one may write
  // the same path from two threads at once.
  static std::atomic<std::uint64_t> sequence{0};
  const std::string tmp = path + ".tmp" + std::to_string(sequence++);
  bool ok = false;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    ok = out && out.write(content.data(),
                          static_cast<std::streamsize>(content.size())) &&
         out.flush();
  }
  ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    std::cerr << g_tool << ": cannot write " << path << "\n";
  }
  return ok;
}

bool write_metrics(const obs::MetricsRegistry& registry,
                   const std::string& path, std::string_view format) {
  return write_file_atomic(path, format == "json"
                                     ? obs::write_json(registry)
                                     : obs::write_prometheus(registry));
}

void install_stop_handlers() {
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
}

bool stop_requested() { return g_stop; }

void pause_for(std::chrono::steady_clock::duration wait,
               const std::function<void()>& tick) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const Clock::time_point until = wait < Clock::time_point::max() - start
                                      ? start + wait
                                      : Clock::time_point::max();
  for (;;) {
    if (tick) tick();
    const Clock::time_point now = Clock::now();
    if (stop_requested() || now >= until) return;
    std::this_thread::sleep_for(std::min<Clock::duration>(
        std::chrono::milliseconds(20), until - now));
  }
}

std::vector<Flag> flaky_flags(rcdc::FlakyConfig& config, bool& enabled) {
  const auto rate = [&enabled](std::string name, double& out,
                               std::string help) {
    return real(std::move(name), "R", out, std::move(help), 1.0)
        .marks(enabled);
  };
  return {
      section("fault injection (flaky fetch layer; per-attempt "
              "probabilities in [0,1], drawn in this order):"),
      rate("--flaky-unreachable", config.unreachable_rate,
           "device unreachable"),
      rate("--flaky-timeout", config.timeout_rate, "pull times out"),
      rate("--flaky-transient", config.transient_rate,
           "pull fails transiently"),
      rate("--flaky-truncate", config.truncate_rate,
           "table arrives truncated"),
      rate("--flaky-corrupt", config.corrupt_rate,
           "table arrives with a damaged next-hop set"),
      count("--flaky-seed", "N", config.seed,
            "failure-schedule seed (default 0)"),
  };
}

}  // namespace dcv::cli
