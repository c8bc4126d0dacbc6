// Golden-output regression harness: the CLI's rendered reports for the
// checked-in configs must match the snapshots under tests/golden/ byte
// for byte. Catches accidental drift in values, formatting, or section
// order anywhere in the model → schemes → io pipeline. Intentional
// output changes are blessed with tools/update_golden.sh (review the
// diff, commit the new snapshots with the change).
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cli/runner.hpp"
#include "cli/serve_runner.hpp"
#include "exec/pool.hpp"
#include "io/config.hpp"

namespace {

#ifndef FEDSHARE_SOURCE_DIR
#error "tests/CMakeLists.txt must define FEDSHARE_SOURCE_DIR"
#endif

std::string repo_path(const std::string& relative) {
  return std::string(FEDSHARE_SOURCE_DIR) + "/" + relative;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing golden fixture " << path
                  << " — run tools/update_golden.sh";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Goldens are recorded at 1 thread (the CLI default); pin it so a
// FEDSHARE_THREADS environment leak cannot fail the comparison.
void expect_report_matches(const std::string& config_name,
                           const std::string& golden_name,
                           const fedshare::cli::ReportOptions& options) {
  fedshare::exec::set_threads(1);
  std::ifstream in(repo_path("configs/" + config_name + ".ini"));
  ASSERT_TRUE(in) << "missing configs/" << config_name << ".ini";
  const auto config = fedshare::io::Config::parse(in);
  const auto result = fedshare::cli::run_report_result(config, options);
  EXPECT_FALSE(result.degraded());
  EXPECT_EQ(result.text, read_file(repo_path("tests/golden/" + golden_name +
                                             ".txt")))
      << "CLI output for configs/" << config_name
      << ".ini drifted from its golden snapshot. If the change is "
         "intentional, regenerate with tools/update_golden.sh and commit "
         "the diff.";
}

void expect_report_matches(const std::string& config_name) {
  expect_report_matches(config_name, config_name,
                        fedshare::cli::ReportOptions{});
}

TEST(GoldenTest, Sec41ReportMatchesSnapshot) {
  expect_report_matches("sec41");
}

TEST(GoldenTest, PlanetlabReportMatchesSnapshot) {
  expect_report_matches("planetlab");
}

// The coalition-structure section (--structure optimal) on top of the
// planetlab report; also pins that the base report is unchanged by the
// flag machinery (the plain snapshot above stays byte-identical).
TEST(GoldenTest, PlanetlabStructureReportMatchesSnapshot) {
  fedshare::cli::ReportOptions options;
  options.structure = fedshare::structure::StructureMode::kOptimal;
  expect_report_matches("planetlab", "planetlab_structure", options);
}

// A typed n = 8 federation: the default report runs the nucleolus on
// all 2^8 - 2 coalition rows, the --symmetry exact report on the 3^4
// orbit rows of its four facility types. Both pin the nucleolus row.
TEST(GoldenTest, Typed8ReportMatchesSnapshot) {
  expect_report_matches("typed8");
}

TEST(GoldenTest, Typed8SymmetryReportMatchesSnapshot) {
  fedshare::cli::ReportOptions options;
  options.symmetry = fedshare::game::SymmetryMode::kExact;
  expect_report_matches("typed8", "typed8_symmetry", options);
}

// The CLI's largest federation, 12 hetero-recipe facilities whose names
// run from 1 to 16 characters, at six decimals: a 4095-row
// coalition-value table with labels of every width, and the dense
// nucleolus on 4094 rows.
TEST(GoldenTest, Hetero12ReportMatchesSnapshot) {
  expect_report_matches("hetero12");
}

// The Resilience and Outage distribution sections, plus the hierarchy
// section (planetlab declares regions), as requested by
// --outage-scenarios.
TEST(GoldenTest, PlanetlabOutageReportMatchesSnapshot) {
  fedshare::cli::ReportOptions options;
  options.outage_scenarios = 16;
  options.outage_seed = 7;
  expect_report_matches("planetlab", "planetlab_outage", options);
}

// --cache-stats under --verify full: pins the Verification section and
// the raw value memo's counters (one lookup per mask per tabulation,
// so the same at any thread count; CliRunner pins that).
TEST(GoldenTest, PlanetlabCacheStatsReportMatchesSnapshot) {
  fedshare::cli::ReportOptions options;
  options.cache_stats = true;
  options.verify = fedshare::verify::VerifyLevel::kFull;
  expect_report_matches("planetlab", "planetlab_cache_stats", options);
}

TEST(GoldenTest, ServeDemoEventFileMatchesSnapshot) {
  fedshare::exec::set_threads(1);
  std::ifstream in(repo_path("configs/serve_demo.events"));
  ASSERT_TRUE(in) << "missing configs/serve_demo.events";
  const auto result = fedshare::cli::run_serve(in);
  EXPECT_FALSE(result.degraded);
  EXPECT_FALSE(result.error.has_value());
  EXPECT_EQ(result.text, read_file(repo_path("tests/golden/serve_demo.txt")))
      << "serve output for configs/serve_demo.events drifted from its "
         "golden snapshot. If the change is intentional, regenerate with "
         "tools/update_golden.sh and commit the diff.";
}

}  // namespace
