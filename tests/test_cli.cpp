// Tests for the CLI runner (config -> federation -> report).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/runner.hpp"
#include "core/game_io.hpp"
#include "exec/pool.hpp"
#include "cli_fixtures.hpp"
#include "game_reference.hpp"

namespace fedshare::cli {
namespace {

using game::reference::coalition_of;

constexpr const char* kPaperConfig =
    "[facility]\n"
    "name = F1\n"
    "locations = 100\n"
    "[facility]\n"
    "name = F2\n"
    "locations = 400\n"
    "[facility]\n"
    "name = F3\n"
    "locations = 800\n"
    "[demand]\n"
    "count = 1\n"
    "min_locations = 500\n";

TEST(CliRunner, BuildsFederationFromConfig) {
  const auto fed = federation_from_config(
      io::Config::parse_string(kPaperConfig));
  EXPECT_EQ(fed.num_facilities(), 3);
  EXPECT_EQ(fed.space().facility(1).name(), "F2");
  EXPECT_EQ(fed.space().facility(2).num_locations(), 800);
  EXPECT_DOUBLE_EQ(fed.demand().classes[0].min_locations, 500.0);
}

TEST(CliRunner, ReportContainsPaperNumbers) {
  const std::string report = fixtures::report_from_string(kPaperConfig);
  // Sec. 4.1 coalition values and the Shapley/proportional shares.
  EXPECT_NE(report.find("F1+F2"), std::string::npos);
  EXPECT_NE(report.find("1300"), std::string::npos);
  EXPECT_NE(report.find("shapley"), std::string::npos);
  EXPECT_NE(report.find("0.2179"), std::string::npos);  // phi-hat_2
  EXPECT_NE(report.find("0.3077"), std::string::npos);  // pi-hat_2
  EXPECT_NE(report.find("nucleolus"), std::string::npos);
  EXPECT_NE(report.find("Game properties"), std::string::npos);
}

TEST(CliRunner, DefaultsApplyWhenKeysOmitted) {
  const auto fed = federation_from_config(io::Config::parse_string(
      "[facility]\nlocations = 10\n[demand]\n"));
  EXPECT_EQ(fed.space().facility(0).name(), "F1");  // generated name
  EXPECT_DOUBLE_EQ(fed.space().facility(0).units_per_location(), 1.0);
  EXPECT_DOUBLE_EQ(fed.demand().classes[0].count, 1.0);
  EXPECT_DOUBLE_EQ(fed.demand().classes[0].exponent, 1.0);
}

TEST(CliRunner, PrecisionOptionChangesOutput) {
  const std::string config = std::string(kPaperConfig) +
                             "[options]\nprecision = 2\n";
  const std::string report = fixtures::report_from_string(config);
  EXPECT_NE(report.find("0.22"), std::string::npos);
  EXPECT_EQ(report.find("0.2179"), std::string::npos);
}

TEST(CliRunner, PrecisionMustBeAnIntegerFromZeroToSeventeen) {
  const std::string base = std::string(kPaperConfig) + "[options]\n";
  const int line =
      static_cast<int>(std::count(base.begin(), base.end(), '\n')) + 1;
  for (const char* value : {"2.7", "-1", "18", "1e12"}) {
    try {
      (void)fixtures::report_from_string(base + "precision = " + value + "\n");
      FAIL() << "expected ConfigError for precision = " << value;
    } catch (const io::ConfigError& e) {
      EXPECT_EQ(e.line(), line) << value;
      EXPECT_NE(std::string(e.what()).find("precision"), std::string::npos);
    }
  }
  const std::string widest =
      fixtures::report_from_string(base + "precision = 17\n");
  EXPECT_NE(widest.find("0.21794871794871795"), std::string::npos);
  const std::string narrowest =
      fixtures::report_from_string(base + "precision = 0\n");
  EXPECT_EQ(narrowest.find("0.2179"), std::string::npos);
}

TEST(CliRunner, RejectsMissingSections) {
  EXPECT_THROW((void)fixtures::report_from_string("[demand]\ncount = 1\n"),
               io::ConfigError);
  EXPECT_THROW(
      (void)fixtures::report_from_string("[facility]\nlocations = 5\n"),
      io::ConfigError);
}

TEST(CliRunner, RejectsBadValuesWithConfigError) {
  EXPECT_THROW((void)fixtures::report_from_string(
                   "[facility]\nlocations = -5\n[demand]\n"),
               io::ConfigError);
  EXPECT_THROW((void)fixtures::report_from_string(
                   "[facility]\nlocations = 2.5\n[demand]\n"),
               io::ConfigError);
  // Invalid demand domain surfaces as ConfigError, not a bare
  // invalid_argument.
  EXPECT_THROW((void)fixtures::report_from_string(
                   "[facility]\nlocations = 5\n[demand]\nexponent = -1\n"),
               io::ConfigError);
}

TEST(CliRunner, RangeErrorsPointAtTheOffendingLine) {
  // Negative units on line 3.
  try {
    (void)fixtures::report_from_string(
        "[facility]\nlocations = 5\nunits = -1\n[demand]\n");
    FAIL() << "expected ConfigError";
  } catch (const io::ConfigError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("units"), std::string::npos);
  }
  // Availability outside (0, 1], line 3.
  try {
    (void)fixtures::report_from_string(
        "[facility]\nlocations = 5\navailability = 1.5\n[demand]\n");
    FAIL() << "expected ConfigError";
  } catch (const io::ConfigError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("availability"), std::string::npos);
  }
  EXPECT_THROW(
      (void)fixtures::report_from_string(
          "[facility]\nlocations = 5\navailability = 0\n[demand]\n"),
      io::ConfigError);
  // Negative demand count, line 4.
  try {
    (void)fixtures::report_from_string(
        "[facility]\nlocations = 5\n[demand]\ncount = -2\n");
    FAIL() << "expected ConfigError";
  } catch (const io::ConfigError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_NE(std::string(e.what()).find("count"), std::string::npos);
  }
  // Non-finite values are rejected by the parser layer.
  EXPECT_THROW((void)fixtures::report_from_string(
                   "[facility]\nlocations = 5\navailability = nan\n"
                   "[demand]\n"),
               io::ConfigError);
}

TEST(CliRunner, RejectsTooManyFacilities) {
  std::string config;
  for (int i = 0; i < 13; ++i) {
    config += "[facility]\nlocations = 2\n";
  }
  config += "[demand]\n";
  EXPECT_THROW((void)fixtures::report_from_string(config), io::ConfigError);
}

TEST(CliRunner, MultipleDemandClassesSupported) {
  const std::string config =
      "[facility]\nlocations = 20\n[facility]\nlocations = 30\n"
      "[demand]\ncount = 5\nmin_locations = 10\n"
      "[demand]\ncount = 2\nmin_locations = 40\nunits = 2\n";
  const auto fed =
      federation_from_config(io::Config::parse_string(config));
  ASSERT_EQ(fed.demand().classes.size(), 2u);
  EXPECT_DOUBLE_EQ(fed.demand().classes[1].units_per_location, 2.0);
}

TEST(CliRunner, ReportIsDeterministic) {
  EXPECT_EQ(fixtures::report_from_string(kPaperConfig),
            fixtures::report_from_string(kPaperConfig));
}

// The value memo is looked up once per mask per tabulation, so the
// --cache-stats footer, like the rest of the report, does not depend on
// the thread count.
TEST(CliRunner, CacheStatsReportIsThreadIndependent) {
  std::ifstream in(std::string(FEDSHARE_SOURCE_DIR) +
                   "/configs/planetlab.ini");
  ASSERT_TRUE(in);
  const auto config = io::Config::parse(in);
  ReportOptions opts;
  opts.cache_stats = true;
  opts.verify = verify::VerifyLevel::kFull;
  exec::set_threads(1);
  const std::string one = run_report_result(config, opts).text;
  exec::set_threads(4);
  const std::string four = run_report_result(config, opts).text;
  exec::set_threads(1);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("Value cache"), std::string::npos);
}

TEST(CliRunner, RegionKeysProduceHierarchySection) {
  const std::string config =
      "[facility]\nname = PLE-core\nlocations = 150\nregion = PLE\n"
      "[facility]\nname = G-Lab\nlocations = 60\nregion = PLE\n"
      "[facility]\nname = PLC\nlocations = 300\n"
      "[demand]\ncount = 5\nmin_locations = 300\n";
  const std::string report = fixtures::report_from_string(config);
  EXPECT_NE(report.find("Hierarchy (Owen value)"), std::string::npos);
  EXPECT_NE(report.find("quotient Shapley share"), std::string::npos);
  EXPECT_NE(report.find("G-Lab"), std::string::npos);
}

TEST(CliRunner, NoRegionKeysNoHierarchySection) {
  const std::string report = fixtures::report_from_string(kPaperConfig);
  EXPECT_EQ(report.find("Hierarchy"), std::string::npos);
}

// Eleven facilities (or `n`). With distinct location counts no two
// facilities are interchangeable, and the default report runs the dense
// nucleolus on 2^11 - 2 excess rows, well under kMaxExcessRows: a
// nucleolus row, no Resilience section, CLI exit 0. The game is nearly
// additive, so most rows are tight at the least core.
std::string eleven_facilities(bool distinct, int n = 11) {
  std::string config;
  for (int i = 0; i < n; ++i) {
    config += "[facility]\nname = F" + std::to_string(i) +
              "\nlocations = " + std::to_string(distinct ? 20 + i : 20) +
              "\n";
  }
  return config + "[demand]\ncount = 4\nmin_locations = 50\n";
}

bool has_nucleolus_row(const std::string& report) {
  return report.find("\nnucleolus ") != std::string::npos;
}

TEST(CliRunner, ElevenFacilitiesWithoutTypesGetTheDenseNucleolus) {
  const auto result = run_report_result(
      io::Config::parse_string(eleven_facilities(true)), ReportOptions{});
  EXPECT_FALSE(result.degraded());
  EXPECT_TRUE(result.degraded_sections.empty());
  EXPECT_EQ(result.stop, runtime::StopReason::kNone);
  EXPECT_EQ(result.text.find("Resilience"), std::string::npos);
  EXPECT_TRUE(has_nucleolus_row(result.text));
  EXPECT_NE(result.text.find("\nbanzhaf "), std::string::npos);
}

// The same recipe at 12 facilities, the CLI's largest federation: almost
// all 4094 rows are tight at the least core, and in the span of
// efficiency and the dual-tight rows, so the nucleolus is one LP and
// every scheme reports (exit 0).
TEST(CliRunner, TwelveNearAdditiveFacilitiesReportEveryScheme) {
  const auto result = run_report_result(
      io::Config::parse_string(eleven_facilities(true, 12)), ReportOptions{});
  EXPECT_FALSE(result.degraded());
  EXPECT_TRUE(result.degraded_sections.empty());
  EXPECT_EQ(result.text.find("Resilience"), std::string::npos);
  EXPECT_EQ(result.text.find("skipped"), std::string::npos);
  for (const char* scheme : {"\nshapley ", "\nprop-availability ",
                             "\nprop-consumption ", "\nequal ",
                             "\nnucleolus ", "\nbanzhaf "}) {
    EXPECT_NE(result.text.find(scheme), std::string::npos) << scheme;
  }
}

// n distinct facilities (locations 130 + 110 i, units alternating 1
// and 2): the default report's heterogeneous federation.
std::string hetero_facilities(int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += "[facility]\nname = F" + std::to_string(i) +
            "\nlocations = " + std::to_string(130 + 110 * i) +
            "\nunits = " + std::to_string(i % 2 + 1) + "\n";
  }
  return text +
         "[demand]\ncount = 20\nmin_locations = 300\n"
         "[demand]\ncount = 5\nmin_locations = 900\nexponent = 1.2\n";
}

// The cheap audit certifies the nucleolus's first level with the least
// core's dual weights and must pass clean (CLI exit 0).
void expect_cheap_verify_passes(int n) {
  SCOPED_TRACE("n = " + std::to_string(n));
  ReportOptions opts;
  opts.verify = verify::VerifyLevel::kCheap;
  const auto result =
      run_report_result(io::Config::parse_string(hetero_facilities(n)), opts);
  EXPECT_FALSE(result.degraded());
  EXPECT_TRUE(has_nucleolus_row(result.text));
  EXPECT_NE(result.text.find("audit checks: "), std::string::npos);
  EXPECT_NE(result.text.find(" (all passed)"), std::string::npos);
  EXPECT_EQ(result.text.find("\nissue: "), std::string::npos);
}

TEST(CliRunner, CheapVerifyPassesOnTenHeterogeneousFacilities) {
  expect_cheap_verify_passes(10);
}

// The CLI's largest federations, 11 and 12 facilities: 2046 and 4094
// dense excess rows.
TEST(CliRunner, CheapVerifyPassesOnTwelveHeterogeneousFacilities) {
  expect_cheap_verify_passes(11);
  expect_cheap_verify_passes(12);
}

TEST(CliRunner, ElevenInterchangeableFacilitiesGetTheQuotientNucleolus) {
  ReportOptions options;
  options.symmetry = game::SymmetryMode::kExact;
  const auto result = run_report_result(
      io::Config::parse_string(eleven_facilities(false)), options);
  EXPECT_FALSE(result.degraded());
  EXPECT_TRUE(has_nucleolus_row(result.text));
  EXPECT_EQ(result.text.find("Resilience"), std::string::npos);
}

// Two same-config facilities (A, B) around a smaller one, with two
// concave demand classes whose greedy allocation meets tied capacities.
constexpr const char* kTiedConfig =
    "[facility]\nname = A\nlocations = 3\nunits = 3\n"
    "[facility]\nname = C\nlocations = 1\nunits = 2\n"
    "[facility]\nname = B\nlocations = 3\nunits = 3\n"
    "[demand]\ncount = 3\nmin_locations = 2\n"
    "[demand]\ncount = 1\nmin_locations = 3\nexponent = 0.5\n";

std::string coalition_table(const std::string& report) {
  const auto begin = report.find("Coalition values");
  const auto end = report.find("Game properties");
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  return report.substr(begin, end - begin);
}

TEST(CliRunner, SymmetryExactPrintsTheSameCoalitionValues) {
  const auto config = io::Config::parse_string(kTiedConfig);
  ReportOptions off;
  ReportOptions exact;
  exact.symmetry = game::SymmetryMode::kExact;
  const std::string table =
      coalition_table(run_report_result(config, off).text);
  EXPECT_NE(table.find("C+B"), std::string::npos);
  EXPECT_EQ(coalition_table(run_report_result(config, exact).text), table);
}

TEST(CliRunner, GenerousDeadlineKeepsTheExactEngines) {
  const auto config = io::Config::parse_string(kPaperConfig);
  ReportOptions opts;
  opts.deadline_ms = 60'000.0;
  const std::string report = run_report_result(config, opts).text;
  EXPECT_NE(report.find("Resilience"), std::string::npos);
  EXPECT_NE(report.find("coalition table: complete"), std::string::npos);
  EXPECT_NE(report.find("shapley engine: exact"), std::string::npos);
  EXPECT_EQ(report.find("monte-carlo"), std::string::npos);
}

TEST(CliRunner, ExpiredDeadlineStillProducesACompleteReport) {
  // Ten facilities -> 1024 coalition evaluations, comfortably past the
  // budget's 64-charge clock-check window, so a 0 ms deadline trips
  // during tabulation and every downstream stage must degrade.
  std::string config;
  for (int i = 0; i < 10; ++i) {
    config += "[facility]\nlocations = 20\n";
  }
  config += "[demand]\ncount = 4\nmin_locations = 50\n";
  ReportOptions opts;
  opts.deadline_ms = 0.0;
  const std::string report =
      run_report_result(io::Config::parse_string(config), opts).text;
  EXPECT_NE(report.find("Resilience"), std::string::npos);
  EXPECT_NE(report.find("truncated"), std::string::npos);
  EXPECT_NE(report.find("monte-carlo"), std::string::npos);
  EXPECT_NE(report.find("standard error"), std::string::npos);
  // Core membership cannot be certified without the coalition table:
  // every scheme row renders its core cell as n/a.
  const std::size_t heading = report.find("Sharing schemes\n");
  ASSERT_NE(heading, std::string::npos);
  std::istringstream section(report.substr(heading));
  std::string line;
  int rows = 0;
  for (int skip = 0; skip < 4 && std::getline(section, line); ++skip) {
  }  // heading, its rule, the column header and its rule
  while (std::getline(section, line) && !line.empty()) {
    ++rows;
    EXPECT_EQ(line.substr(line.size() - 3), "n/a") << line;
  }
  EXPECT_EQ(rows, 4);  // shapley, both proportionals, equal
  // Every scheme still reports shares for every facility.
  EXPECT_NE(report.find("shapley"), std::string::npos);
  EXPECT_NE(report.find("equal"), std::string::npos);
}

TEST(CliRunner, OutageSectionIsDeterministicGivenTheSeed) {
  const std::string config =
      "[facility]\nname = A\nlocations = 40\navailability = 0.7\n"
      "[facility]\nname = B\nlocations = 60\navailability = 0.8\n"
      "[facility]\nname = C\nlocations = 80\navailability = 0.9\n"
      "[demand]\ncount = 2\nmin_locations = 60\n";
  const auto parsed = io::Config::parse_string(config);
  ReportOptions opts;
  opts.outage_scenarios = 6;
  opts.outage_seed = 17;
  const std::string a = run_report_result(parsed, opts).text;
  const std::string b = run_report_result(parsed, opts).text;
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("Outage distribution"), std::string::npos);
  EXPECT_NE(a.find("scenarios: 6/6 (seed 17)"), std::string::npos);
  ReportOptions other = opts;
  other.outage_seed = 18;
  EXPECT_NE(a, run_report_result(parsed, other).text);
}

TEST(CliRunner, DumpGameRoundTripsThroughLoader) {
  const auto config = io::Config::parse_string(kPaperConfig);
  const std::string text = dump_game_text(config);
  std::istringstream in(text);
  const auto g = game::reference::load_game(in);
  EXPECT_EQ(g.num_players(), 3);
  EXPECT_DOUBLE_EQ(g.grand_value(), 1300.0);
  EXPECT_DOUBLE_EQ(g.value(coalition_of({0, 1})), 500.0);
}

}  // namespace
}  // namespace fedshare::cli
