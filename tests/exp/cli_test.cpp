// In-process tests of the radiocast CLI driver (src/cli/cli.hpp): command
// parsing, artifact emission, exit codes, and end-to-end reproducibility.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace radiocast::cli {
namespace {

constexpr const char* kTinySpec = R"({
  "id": "cli_tiny",
  "topology": { "family": "geometric", "n": 16, "seed": 5, "radius": 0.5 },
  "algos": ["coded"],
  "k": [4],
  "seeds": 2,
  "seed_base": 42
})";

struct CliRun {
  int code = 0;
  std::string out, err;
};

CliRun run_cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  CliRun r;
  r.code = cli_main(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

std::string temp_dir(const std::string& leaf) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(Cli, NoArgsPrintsUsageAndFails) {
  const CliRun r = run_cli({});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  EXPECT_EQ(run_cli({"--help"}).code, 0);
  EXPECT_EQ(run_cli({"help"}).code, 0);
}

TEST(Cli, UnknownCommandFails) {
  const CliRun r = run_cli({"frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, VersionReportsBuildProvenance) {
  const CliRun r = run_cli({"version"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("compiler:"), std::string::npos);
  EXPECT_NE(r.out.find("sweeps:"), std::string::npos);
}

TEST(Cli, ValidatePrintsCanonicalForm) {
  const std::string dir = temp_dir("cli_validate");
  write_file(dir + "/spec.json", kTinySpec);
  const CliRun r = run_cli({"validate", dir + "/spec.json"});
  EXPECT_EQ(r.code, 0);
  // Defaults are materialized in the canonical form.
  EXPECT_NE(r.out.find("\"payload_bytes\": 16"), std::string::npos) << r.out;
}

TEST(Cli, ValidateRejectsBadSpecWithExitCode1) {
  const std::string dir = temp_dir("cli_validate_bad");
  write_file(dir + "/spec.json", R"({"id": "x", "algos": ["quantum"]})");
  const CliRun r = run_cli({"validate", dir + "/spec.json"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
  EXPECT_EQ(run_cli({"validate", dir + "/nonexistent.json"}).code, 1);
}

TEST(Cli, RunEmitsResultsManifestAndReport) {
  const std::string dir = temp_dir("cli_run");
  write_file(dir + "/spec.json", kTinySpec);
  const CliRun r = run_cli({"run", dir + "/spec.json", "--out", dir});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(std::filesystem::exists(dir + "/cli_tiny.results.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/cli_tiny.manifest.json"));
  // The rendered report and the manifest digest are on stdout.
  EXPECT_NE(r.out.find("### cli_tiny"), std::string::npos);
  EXPECT_NE(r.out.find("fnv1a64:"), std::string::npos);
  // The emitted manifest carries a wall-clock stamp in its environment.
  const std::string manifest = read_file(dir + "/cli_tiny.manifest.json");
  EXPECT_NE(manifest.find("\"timestamp_utc\": \"2"), std::string::npos);
}

TEST(Cli, RunTwiceIsByteIdenticalModuloTimestamp) {
  const std::string dir = temp_dir("cli_rerun");
  write_file(dir + "/spec.json", kTinySpec);
  ASSERT_EQ(run_cli({"run", dir + "/spec.json", "--out", dir + "/a", "--quiet"}).code, 0);
  ASSERT_EQ(run_cli({"run", dir + "/spec.json", "--out", dir + "/b", "--quiet",
                     "--threads", "3"})
                .code,
            0);
  EXPECT_EQ(read_file(dir + "/a/cli_tiny.results.json"),
            read_file(dir + "/b/cli_tiny.results.json"));
  // Manifests agree line-for-line outside the environment block's
  // timestamp/elapsed/threads fields.
  const auto strip_env = [](const std::string& text) {
    std::istringstream in(text);
    std::string out, line;
    while (std::getline(in, line)) {
      if (line.find("\"timestamp_utc\"") != std::string::npos ||
          line.find("\"elapsed_seconds\"") != std::string::npos ||
          line.find("\"threads\"") != std::string::npos)
        continue;
      out += line + "\n";
    }
    return out;
  };
  EXPECT_EQ(strip_env(read_file(dir + "/a/cli_tiny.manifest.json")),
            strip_env(read_file(dir + "/b/cli_tiny.manifest.json")));
}

TEST(Cli, SeedsOverrideWidensTheGrid) {
  const std::string dir = temp_dir("cli_seeds");
  write_file(dir + "/spec.json", kTinySpec);
  ASSERT_EQ(
      run_cli({"run", dir + "/spec.json", "--out", dir, "--seeds", "3", "--quiet"}).code,
      0);
  const std::string manifest = read_file(dir + "/cli_tiny.manifest.json");
  EXPECT_NE(manifest.find("\"seeds\": 3"), std::string::npos);
}

TEST(Cli, ReportRendersAnEmittedResultsFile) {
  const std::string dir = temp_dir("cli_report");
  write_file(dir + "/spec.json", kTinySpec);
  ASSERT_EQ(run_cli({"run", dir + "/spec.json", "--out", dir, "--quiet"}).code, 0);
  const CliRun r = run_cli({"report", dir + "/cli_tiny.results.json"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("### cli_tiny"), std::string::npos);
  EXPECT_NE(r.out.find("r/pkt"), std::string::npos);
}

TEST(Cli, ListSummarizesScenarioDirectory) {
  const std::string dir = temp_dir("cli_list");
  write_file(dir + "/good.json", kTinySpec);
  write_file(dir + "/bad.json", "{nope");
  const CliRun r = run_cli({"list", dir});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("cli_tiny [kbroadcast, 1 cells x 2 seeds]"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("INVALID"), std::string::npos);
}

TEST(Cli, RunUnknownOptionFails) {
  // A real spec file, so a run that ignored the option would exit 0.
  const std::string dir = temp_dir("cli_unknown_option");
  write_file(dir + "/spec.json", kTinySpec);
  const std::vector<std::vector<std::string>> extras = {
      {"--frobnicate"}, {"--shards", "2"}, {"--engine", "bitset"}};
  for (const std::vector<std::string>& extra : extras) {
    std::vector<std::string> args = {"run", dir + "/spec.json", "--out", dir, "--quiet"};
    args.insert(args.end(), extra.begin(), extra.end());
    const CliRun r = run_cli(args);
    EXPECT_EQ(r.code, 1) << extra[0];
    EXPECT_NE(r.err.find("unknown option " + extra[0]), std::string::npos) << r.err;
  }
  EXPECT_FALSE(std::filesystem::exists(dir + "/cli_tiny.results.json"));
}

TEST(Cli, RunRejectsMalformedIntegerOptions) {
  const std::string dir = temp_dir("cli_bad_int");
  write_file(dir + "/spec.json", kTinySpec);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--seeds", "1x"},      {"--seeds", "0"},      {"--seeds", "abc"},
      {"--seeds", "-1"},      {"--seeds", ""},       {"--seeds", " 2"},
      {"--seeds", "+2"},      {"--seeds", "99999999999"},
      {"--threads", "-4"},    {"--threads", "4x"},   {"--threads", "2.5"},
  };
  for (const auto& [flag, value] : cases) {
    const CliRun r =
        run_cli({"run", dir + "/spec.json", "--out", dir, "--quiet", flag, value});
    EXPECT_EQ(r.code, 1) << flag << " " << value;
    // The message names both the flag and the offending value.
    EXPECT_NE(r.err.find(flag), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("\"" + value + "\""), std::string::npos) << r.err;
  }
  EXPECT_FALSE(std::filesystem::exists(dir + "/cli_tiny.results.json"));
}

}  // namespace
}  // namespace radiocast::cli
