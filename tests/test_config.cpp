// Tests for the INI config parser.
#include <gtest/gtest.h>

#include "io/config.hpp"

namespace fedshare::io {
namespace {

TEST(Config, ParsesSectionsAndEntries) {
  const auto cfg = Config::parse_string(
      "# federation\n"
      "[facility]\n"
      "name = PLC\n"
      "locations = 300\n"
      "\n"
      "[facility]\n"
      "name = PLE\n"
      "locations=180\n"
      "; trailing comment\n");
  ASSERT_EQ(cfg.sections.size(), 2u);
  EXPECT_EQ(cfg.sections[0].name, "facility");
  EXPECT_EQ(cfg.sections[0].get_string("name"), "PLC");
  EXPECT_DOUBLE_EQ(cfg.sections[1].get_double("locations"), 180.0);
  EXPECT_EQ(cfg.sections_named("facility").size(), 2u);
  EXPECT_TRUE(cfg.sections_named("nothing").empty());
}

TEST(Config, TrimsWhitespaceEverywhere) {
  const auto cfg = Config::parse_string("  [ s ]  \n  key  =  a value  \n");
  ASSERT_EQ(cfg.sections.size(), 1u);
  EXPECT_EQ(cfg.sections[0].name, "s");
  EXPECT_EQ(cfg.sections[0].get_string("key"), "a value");
}

TEST(Config, FindReturnsNulloptForMissing) {
  const auto cfg = Config::parse_string("[s]\nk = 1\n");
  EXPECT_FALSE(cfg.sections[0].find("absent").has_value());
  EXPECT_TRUE(cfg.sections[0].find("k").has_value());
}

TEST(Config, GetDoubleOrUsesFallback) {
  const auto cfg = Config::parse_string("[s]\nk = 2.5\n");
  EXPECT_DOUBLE_EQ(cfg.sections[0].get_double_or("k", 9.0), 2.5);
  EXPECT_DOUBLE_EQ(cfg.sections[0].get_double_or("absent", 9.0), 9.0);
}

TEST(Config, ErrorsCarryLineNumbers) {
  try {
    (void)Config::parse_string("[s]\nbroken line\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Config, RejectsEntryBeforeSection) {
  EXPECT_THROW((void)Config::parse_string("k = 1\n"), ConfigError);
}

TEST(Config, RejectsMalformedHeaders) {
  EXPECT_THROW((void)Config::parse_string("[unterminated\n"), ConfigError);
  EXPECT_THROW((void)Config::parse_string("[]\n"), ConfigError);
}

TEST(Config, RejectsDuplicateKeys) {
  EXPECT_THROW((void)Config::parse_string("[s]\nk = 1\nk = 2\n"),
               ConfigError);
}

TEST(Config, RejectsEmptyKey) {
  EXPECT_THROW((void)Config::parse_string("[s]\n = 1\n"), ConfigError);
}

TEST(Config, RejectsNonNumericDouble) {
  const auto cfg = Config::parse_string("[s]\nk = abc\nj = 1.5x\n");
  EXPECT_THROW((void)cfg.sections[0].get_double("k"), ConfigError);
  EXPECT_THROW((void)cfg.sections[0].get_double("j"), ConfigError);
}

TEST(Config, MissingRequiredKeyNamesSection) {
  const auto cfg = Config::parse_string("[facility]\n");
  try {
    (void)cfg.sections[0].get_string("locations");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("facility"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("locations"), std::string::npos);
  }
}

TEST(Config, EmptyInputIsEmptyConfig) {
  EXPECT_TRUE(Config::parse_string("").sections.empty());
  EXPECT_TRUE(Config::parse_string("# only comments\n\n").sections.empty());
}

TEST(Config, EntriesCarryTheirOwnLineNumbers) {
  const auto cfg = Config::parse_string("[s]\n\nk = 1\nj = 2\n");
  ASSERT_EQ(cfg.sections.size(), 1u);
  EXPECT_EQ(cfg.sections[0].line, 1);
  EXPECT_EQ(cfg.sections[0].entry_line("k"), 3);
  EXPECT_EQ(cfg.sections[0].entry_line("j"), 4);
  // Absent keys fall back to the section header's line.
  EXPECT_EQ(cfg.sections[0].entry_line("absent"), 1);
}

TEST(Config, GetDoubleErrorsPointAtTheEntryLine) {
  const auto cfg = Config::parse_string("[s]\n\n\nk = abc\n");
  try {
    (void)cfg.sections[0].get_double("k");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

TEST(Config, GetIntOrRequiresAnIntegerInRange) {
  const auto cfg = Config::parse_string(
      "[s]\na = 2.7\nb = -1\nc = 18\nd = 1e12\ne = 17\nf = 0\n");
  const ConfigSection& s = cfg.sections[0];
  EXPECT_EQ(s.get_int_or("e", 4, 0, 17), 17);
  EXPECT_EQ(s.get_int_or("f", 4, 0, 17), 0);
  EXPECT_EQ(s.get_int_or("absent", 4, 0, 17), 4);
  const std::pair<const char*, int> bad[] = {
      {"a", 2}, {"b", 3}, {"c", 4}, {"d", 5}};
  for (const auto& [key, line] : bad) {
    try {
      (void)s.get_int_or(key, 4, 0, 17);
      FAIL() << "expected ConfigError for " << key;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.line(), line) << key;
      EXPECT_NE(std::string(e.what()).find("integer in [0, 17]"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Config, RejectsNonFiniteDoubles) {
  const auto cfg =
      Config::parse_string("[s]\na = nan\nb = inf\nc = -inf\nd = NaN\n");
  EXPECT_THROW((void)cfg.sections[0].get_double("a"), ConfigError);
  EXPECT_THROW((void)cfg.sections[0].get_double("b"), ConfigError);
  EXPECT_THROW((void)cfg.sections[0].get_double("c"), ConfigError);
  EXPECT_THROW((void)cfg.sections[0].get_double("d"), ConfigError);
  try {
    (void)cfg.sections[0].get_double("b");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos);
  }
}

}  // namespace
}  // namespace fedshare::io
