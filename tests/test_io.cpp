// Tests for the io substrate: tables, CSV escaping, ASCII plots.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "io/ascii_plot.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "table_reference.hpp"

namespace fedshare::io {
namespace {

// What print() writes, as a string.
template <typename Printable>
std::string rendered(const Printable& printable) {
  std::ostringstream out;
  printable.print(out);
  return out.str();
}

TEST(Table, RendersHeaderSeparatorAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  // Two columns, right-aligned to their widest cell; two data rows.
  EXPECT_EQ(rendered(t),
            " name  value\n"
            "------------\n"
            "alpha      1\n"
            " beta     22\n");
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  // One data row, its missing cells printed empty.
  EXPECT_EQ(rendered(t),
            "a  b  c\n"
            "-------\n"
            "x      \n");
}

TEST(Table, RejectsOverlongRows) {
  Table t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeaders) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RightAlignmentPadsLeft) {
  Table t({"col"});
  t.add_row({"1"});
  t.add_row({"100"});
  const std::string s = rendered(t);
  EXPECT_NE(s.find("  1\n"), std::string::npos);
}

TEST(Table, SetAlignValidatesColumn) {
  Table t({"col"});
  EXPECT_THROW(t.set_align(1, Align::kLeft), std::invalid_argument);
}

TEST(Table, CellsAppendedOneByOneMatchAddRow) {
  Table cells({"scheme", "a", "b"});
  cells.add_cell("shapley");
  cells.add_number(0.25, 3);
  cells.add_number(-0.0, 3);
  cells.end_row();
  cells.add_cell("equal");
  cells.end_row();
  Table rows({"scheme", "a", "b"});
  rows.add_row({"shapley", "0.250", "-0.000"});
  rows.add_row({"equal"});
  EXPECT_EQ(rendered(cells), rendered(rows));
  EXPECT_EQ(rendered(cells),
            " scheme      a       b\n"
            "----------------------\n"
            "shapley  0.250  -0.000\n"
            "  equal               \n");
}

TEST(Table, RejectsCellsPastTheLastColumn) {
  Table t({"a", "b"});
  t.add_cell("1");
  EXPECT_THROW(t.add_row({"2", "3"}), std::invalid_argument);
  t.add_number(2.0, 0);
  EXPECT_THROW(t.add_cell("3"), std::invalid_argument);
  EXPECT_THROW(t.add_number(3.0, 0), std::invalid_argument);
  t.end_row();
  t.add_cell("3");
  EXPECT_EQ(rendered(t),
            "a  b\n"
            "----\n"
            "1  2\n"
            "3   \n");
}

// print(std::string&) appends: what is already in the buffer stays.
TEST(Table, PrintAppendsToTheBuffer) {
  Table t({"x"});
  t.add_number(1.5, 1);
  t.end_row();
  std::string out = "before\n";
  t.print(out);
  EXPECT_EQ(out, "before\n  x\n---\n1.5\n");
}

TEST(FormatDouble, RoundsToPrecision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(FormatDouble, NegativePrecisionClampsToZero) {
  EXPECT_EQ(format_double(1.9, -3), "2");
}

// printf's "%.*f" into a buffer that holds the whole result.
std::string printf_fixed(double value, int precision) {
  const int size = std::snprintf(nullptr, 0, "%.*f", precision, value);
  std::string out(static_cast<std::size_t>(size) + 1, '\0');
  std::snprintf(out.data(), out.size(), "%.*f", precision, value);
  out.pop_back();
  return out;
}

TEST(FormatDouble, LargeValuesKeepEveryDigit) {
  EXPECT_EQ(format_double(1e50, 17), printf_fixed(1e50, 17));
  EXPECT_EQ(format_double(1e50, 17).size(), 51u + 1u + 17u);
  EXPECT_EQ(format_double(1e300, 4), printf_fixed(1e300, 4));
  EXPECT_EQ(format_double(1e300, 4).size(), 301u + 1u + 4u);
  const double largest = std::numeric_limits<double>::max();
  for (const int p : {0, 4, 17, 400}) {
    EXPECT_EQ(format_double(largest, p), printf_fixed(largest, p)) << p;
    EXPECT_EQ(format_double(-largest, p), printf_fixed(-largest, p)) << p;
  }
  EXPECT_EQ(format_double(std::numeric_limits<double>::denorm_min(), 1100),
            printf_fixed(std::numeric_limits<double>::denorm_min(), 1100));
}

TEST(FormatDouble, SignedZeroNanAndInfinityMatchPrintf) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const int p : {0, 4, 17}) {
    for (const double v : {-0.0, 0.0, nan, -nan, inf, -inf}) {
      EXPECT_EQ(format_double(v, p), printf_fixed(v, p)) << v << " @" << p;
    }
  }
  EXPECT_EQ(format_double(-0.0, 4), "-0.0000");
  EXPECT_EQ(format_double(inf, 4), "inf");
  EXPECT_EQ(format_double(-inf, 4), "-inf");
}

TEST(FormatDouble, RoundingMatchesPrintf) {
  // 0.00005 and 0.00015 are not exact in binary: each rounds by the
  // side of the tie its binary value lies on. 2.5 is an exact tie.
  EXPECT_EQ(format_double(0.00005, 4), printf_fixed(0.00005, 4));
  EXPECT_EQ(format_double(0.00015, 4), printf_fixed(0.00015, 4));
  EXPECT_EQ(format_double(2.5, 0), printf_fixed(2.5, 0));
  EXPECT_EQ(format_double(2.5, 0), "2");
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> mantissa(-10.0, 10.0);
  std::uniform_int_distribution<int> exponent(-12, 12);
  std::uniform_int_distribution<int> precision(0, 17);
  for (int i = 0; i < 2000; ++i) {
    const double v = std::ldexp(mantissa(rng), 3 * exponent(rng));
    const int p = precision(rng);
    ASSERT_EQ(format_double(v, p), printf_fixed(v, p)) << v << " @" << p;
  }
}

// io::Table renders byte for byte what the row-of-strings oracle renders
// from the same cells, on random tables: header-only tables, short and
// empty rows, empty cells, both alignments, and number cells at
// precision 0..17 on the values printf treats specially. The oracle
// gets each number as printf's "%.*f"; io::Table writes it through its
// own add_number or, row by row at random, gets the same strings
// through add_row.
TEST(Table, MatchesTheReferenceRendererOnRandomTables) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0,   -0.0,   nan,     -nan,     inf,
                             -inf,  1e300,  -1e300,  0.00005,  -0.00005,
                             2.5,   1234.5678};
  const int last_special = static_cast<int>(std::size(specials)) - 1;
  std::mt19937_64 rng(20261020);
  const auto uniform = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const auto text = [&](int max_size) {
    std::string s(static_cast<std::size_t>(uniform(0, max_size)), ' ');
    for (char& c : s) c = static_cast<char>(uniform('!', '~'));
    return s;
  };
  for (int trial = 0; trial < 400; ++trial) {
    const int columns = uniform(1, 6);
    std::vector<std::string> headers;
    for (int c = 0; c < columns; ++c) headers.push_back(text(8));
    Table table(headers);
    reference::Table oracle(headers);
    for (int c = 0; c < columns; ++c) {
      const Align align = uniform(0, 1) == 0 ? Align::kLeft : Align::kRight;
      table.set_align(static_cast<std::size_t>(c), align);
      oracle.set_align(static_cast<std::size_t>(c), align);
    }
    const int rows = uniform(0, 7);
    for (int r = 0; r < rows; ++r) {
      const bool by_cell = uniform(0, 1) == 0;
      std::vector<std::string> cells;
      const int width = uniform(0, columns);
      for (int c = 0; c < width; ++c) {
        if (uniform(0, 2) == 0) {
          cells.push_back(text(12));
          if (by_cell) table.add_cell(cells.back());
          continue;
        }
        const double v =
            uniform(0, 1) == 0
                ? specials[uniform(0, last_special)]
                : std::ldexp(std::uniform_real_distribution<double>(-1, 1)(rng),
                             uniform(-30, 60));
        const int p = uniform(0, 17);
        cells.push_back(printf_fixed(v, p));
        if (by_cell) table.add_number(v, p);
      }
      if (by_cell) {
        table.end_row();
      } else {
        table.add_row(cells);
      }
      oracle.add_row(cells);
    }
    ASSERT_EQ(rendered(table), rendered(oracle)) << "trial " << trial;
  }
}

TEST(FormatPercent, ScalesFraction) {
  EXPECT_EQ(format_percent(0.125, 1), "12.5%");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream oss;
  CsvWriter w(oss);
  w.write_row(std::vector<std::string>{"x", "y"});
  w.write_row(std::vector<double>{1.5, 2.25}, 2);
  EXPECT_EQ(oss.str(), "x,y\n1.50,2.25\n");
}

TEST(AsciiPlot, RendersSeriesGlyphsAndLegend) {
  AsciiPlot p(20, 10);
  p.add_series({"rising", {0, 1, 2, 3}, {0, 1, 2, 3}});
  const std::string s = rendered(p);
  EXPECT_NE(s.find('1'), std::string::npos);
  EXPECT_NE(s.find("rising"), std::string::npos);
}

TEST(AsciiPlot, RejectsTinyDimensions) {
  EXPECT_THROW(AsciiPlot(4, 4), std::invalid_argument);
}

TEST(AsciiPlot, RejectsMismatchedSeries) {
  AsciiPlot p(20, 10);
  EXPECT_THROW(p.add_series({"bad", {0, 1}, {0}}), std::invalid_argument);
}

TEST(AsciiPlot, EmptyPlotPrintsPlaceholder) {
  AsciiPlot p(20, 10);
  EXPECT_NE(rendered(p).find("empty"), std::string::npos);
}

}  // namespace
}  // namespace fedshare::io
