#include "cli.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "rcdc/flaky_fib_source.hpp"

namespace dcv::cli {
namespace {

ParseResult run(const std::vector<Flag>& flags,
                std::vector<std::string_view> args) {
  return parse_args(flags, args);
}

TEST(CliValues, UnsignedAcceptsOnlyWholeNumbersInRange) {
  EXPECT_EQ(parse_unsigned("0", 0, 10), 0u);
  EXPECT_EQ(parse_unsigned("10", 0, 10), 10u);
  EXPECT_EQ(parse_unsigned("18446744073709551615", 0, UINT64_MAX),
            UINT64_MAX);
  for (const char* bad : {"", "11", "-1", "+1", " 1", "1 ", "2x", "abc",
                          "0x10", "1.0", "18446744073709551616"}) {
    EXPECT_FALSE(parse_unsigned(bad, 0, 10).has_value()) << bad;
  }
  EXPECT_FALSE(parse_unsigned("0", 1, 10).has_value());
}

TEST(CliFlags, RealRejectsNonFiniteAndOutOfRange) {
  double rate = 0.5;
  const Flag flag = real("--flaky-timeout", "R", rate, "", 1.0);
  for (const char* good : {"0", "1", "0.25"}) {
    EXPECT_EQ(flag.store(good), "") << good;
    EXPECT_EQ(rate, std::stod(good));
  }
  for (const char* bad :
       {"", "1.01", "-0.1", "nan", "inf", "0.5x", " 0.5", "abc"}) {
    EXPECT_EQ(flag.store(bad), "a rate in [0, 1]") << bad;
  }
  EXPECT_EQ(rate, 0.25);

  double scale = 1.0;
  const Flag unbounded = real("--time-scale", "X", scale, "");
  EXPECT_EQ(unbounded.store("1e6"), "");
  EXPECT_EQ(scale, 1e6);
  EXPECT_EQ(unbounded.store("-1"), "a non-negative number");
  EXPECT_EQ(unbounded.store("inf"), "a non-negative number");
}

TEST(CliFlags, PortIsACountIntoSixteenBits) {
  std::uint16_t value = 7;
  const Flag fixed = count("--port", "PORT", value, "", /*min=*/1);
  for (const char* bad : {"0", "65536", "abc", "-1"}) {
    EXPECT_EQ(fixed.store(bad), "an integer in [1, 65535]") << bad;
  }
  EXPECT_EQ(value, 7);
  EXPECT_EQ(fixed.store("1"), "");
  EXPECT_EQ(value, 1);
  EXPECT_EQ(fixed.store("65535"), "");
  EXPECT_EQ(value, 65535);

  const Flag ephemeral = count("--serve", "PORT", value, "");
  EXPECT_EQ(ephemeral.store("0"), "");
  EXPECT_EQ(value, 0);
  EXPECT_EQ(ephemeral.store("65536"), "an integer in [0, 65535]");
}

TEST(CliFlags, CountIsBoundedByItsTargetType) {
  std::uint8_t proto = 6;
  const Flag flag = count("--proto", "N", proto, "");
  EXPECT_EQ(flag.store("255"), "");
  EXPECT_EQ(proto, 255);
  EXPECT_EQ(flag.store("300"), "an integer in [0, 255]");
  EXPECT_EQ(proto, 255);

  std::uint32_t clusters = 4;
  const Flag positive = count("--clusters", "N", clusters, "", 1);
  EXPECT_NE(positive.store("0"), "");
  EXPECT_NE(positive.store("4294967296"), "");
  EXPECT_EQ(positive.store("4294967295"), "");
  EXPECT_EQ(clusters, 4294967295u);
}

TEST(CliFlags, DurationConvertsUnitsAndStaysRepresentable) {
  std::chrono::nanoseconds lease{0};
  const Flag flag =
      duration<std::chrono::milliseconds>("--lease-ms", lease, "");
  EXPECT_EQ(flag.store("1500"), "");
  EXPECT_EQ(lease, std::chrono::milliseconds(1500));
  // Past half of what nanoseconds hold, a clock reading plus the value
  // could overflow.
  EXPECT_NE(flag.store("9223372036854"), "");
  EXPECT_EQ(flag.store("4611686018427"), "");
}

TEST(CliFlags, ChoiceAndSwitches) {
  std::string format = "prom";
  const Flag flag =
      choice("--metrics-format", "F", format, kMetricsFormats, "");
  EXPECT_EQ(flag.store("json"), "");
  EXPECT_EQ(format, "json");
  EXPECT_EQ(flag.store("xml"), "one of prom|json");
  EXPECT_EQ(format, "json");

  bool stale = true;
  EXPECT_EQ(toggle("--no-stale", stale, "", false).store(""), "");
  EXPECT_FALSE(stale);
}

TEST(CliParse, StoresValuesAndMarksGivenFlags) {
  std::string topology;
  unsigned threads = 4;
  bool quiet = false;
  bool resilience = false;
  std::uint32_t retries = 3;
  std::vector<std::string> extra;
  const std::vector<Flag> flags = {
      text("--topology", "FILE", topology, "").require(),
      count("--threads", "N", threads, ""),
      toggle("--quiet", quiet, ""),
      count("--retries", "N", retries, "").marks(resilience),
      list("--worker-arg", "ARG", extra, ""),
  };
  const ParseResult result =
      run(flags, {"--topology", "t.topo", "--quiet", "--worker-arg",
                  "--source", "--retries", "5", "--worker-arg", "synth"});
  EXPECT_FALSE(result.help);
  EXPECT_EQ(result.error, "");
  EXPECT_EQ(topology, "t.topo");
  EXPECT_EQ(threads, 4u);
  EXPECT_TRUE(quiet);
  EXPECT_TRUE(resilience);
  EXPECT_EQ(retries, 5u);
  // A value may itself look like a flag: it is passed through verbatim.
  EXPECT_EQ(extra, (std::vector<std::string>{"--source", "synth"}));
}

TEST(CliParse, FlagGivenTwiceKeepsTheLastValue) {
  unsigned threads = 4;
  const std::vector<Flag> flags = {count("--threads", "N", threads, "")};
  EXPECT_EQ(run(flags, {"--threads", "2", "--threads", "8"}).error, "");
  EXPECT_EQ(threads, 8u);
}

TEST(CliParse, MisuseNamesTheFlag) {
  std::string topology;
  unsigned threads = 4;
  const std::vector<Flag> flags = {
      text("--topology", "FILE", topology, "").require(),
      count("--threads", "N", threads, ""),
  };
  EXPECT_EQ(run(flags, {"--topology", "t", "--threads"}).error,
            "--threads needs a value");
  EXPECT_EQ(run(flags, {"--topology", "t", "--threads", "2x"}).error,
            "--threads wants an integer in [0, 4294967295], got '2x'");
  EXPECT_EQ(run(flags, {"--topology", "t", "--bogus"}).error,
            "--bogus is not a known flag (see --help)");
  EXPECT_EQ(run(flags, {"t.topo"}).error,
            "t.topo is not a known flag (see --help)");
  EXPECT_EQ(run(flags, {"--threads", "2"}).error,
            "--topology FILE is required");
  // --help wins when it comes first, and needs no required flag.
  EXPECT_TRUE(run(flags, {"--help", "--bogus"}).help);
  EXPECT_TRUE(run(flags, {"-h"}).help);
  EXPECT_FALSE(run(flags, {"--bogus", "--help"}).help);
}

TEST(CliUsage, ListsEveryDeclaredFlag) {
  std::string topology;
  std::string format = "prom";
  bool quiet = false;
  rcdc::FlakyConfig flaky;
  bool use_flaky = false;
  std::vector<Flag> flags = {
      text("--topology", "FILE", topology, "topology file").require(),
      section("output:"),
      choice("--metrics-format", "F", format, kMetricsFormats,
             "prom (default) or json; a long help paragraph that has to "
             "wrap onto a second line of the generated usage text"),
      toggle("--quiet", quiet, "print only the summary line"),
  };
  for (Flag& flag : flaky_flags(flaky, use_flaky)) {
    flags.push_back(std::move(flag));
  }
  const std::string help = usage("tool", flags);
  EXPECT_EQ(help.rfind("usage: tool --topology FILE [options]\n", 0), 0u);
  EXPECT_NE(help.find("\noutput:\n"), std::string::npos);
  std::size_t declared = 0;
  for (const Flag& flag : flags) {
    if (flag.name.empty()) continue;
    ++declared;
    EXPECT_NE(help.find("\n  " + flag.name + " "), std::string::npos)
        << flag.name;
  }
  EXPECT_EQ(declared, 9u);
  std::istringstream lines(help);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_LE(line.size(), 79u) << line;
  }
}

TEST(CliFlaky, RatesEnableTheLayerAndTheSeedDoesNot) {
  rcdc::FlakyConfig flaky;
  bool enabled = false;
  const std::vector<Flag> flags = flaky_flags(flaky, enabled);
  EXPECT_EQ(run(flags, {"--flaky-seed", "7"}).error, "");
  EXPECT_EQ(flaky.seed, 7u);
  EXPECT_FALSE(enabled);
  EXPECT_EQ(run(flags, {"--flaky-truncate", "0.2", "--flaky-unreachable",
                        "0"}).error,
            "");
  EXPECT_TRUE(enabled);
  EXPECT_EQ(flaky.truncate_rate, 0.2);
  EXPECT_EQ(flaky.unreachable_rate, 0.0);
}

class CliFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dcv_cli_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::string> entries() const {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  std::filesystem::path dir_;
};

TEST_F(CliFiles, AtomicWriteReplacesTheFileAndLeavesNoTemp) {
  const std::string path = (dir_ / "metrics.prom").string();
  ASSERT_TRUE(write_file_atomic(path, "old\n"));
  ASSERT_TRUE(write_file_atomic(path, "new\n"));
  EXPECT_EQ(read_file(path), "new\n");
  EXPECT_EQ(entries(), std::vector<std::string>{"metrics.prom"});
}

TEST_F(CliFiles, FailedAtomicWriteLeavesNoTemp) {
  // A directory where the file should go: the rename must fail.
  std::filesystem::create_directory(dir_ / "RH-0.rt");
  EXPECT_FALSE(write_file_atomic((dir_ / "RH-0.rt").string(), "table\n"));
  EXPECT_EQ(entries(), std::vector<std::string>{"RH-0.rt"});
  // A missing parent directory: the temp file cannot even be created.
  EXPECT_FALSE(write_file_atomic((dir_ / "absent" / "x").string(), "x"));
  EXPECT_EQ(entries(), std::vector<std::string>{"RH-0.rt"});
}

TEST_F(CliFiles, ReadingAMissingFileOrADirectoryExitsOne) {
  EXPECT_EXIT((void)read_file((dir_ / "absent.topo").string()),
              ::testing::ExitedWithCode(1), "cannot read");
  EXPECT_EXIT((void)read_file(dir_.string()), ::testing::ExitedWithCode(1),
              "cannot read");
}

}  // namespace
}  // namespace dcv::cli
