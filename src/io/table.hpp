// Aligned text-table formatting for benchmark and example output.
//
// The figure-reproduction harnesses print the data series behind each of
// the paper's plots; Table gives them a uniform, diff-friendly layout.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace fedshare::io {

/// Column alignment inside a Table.
enum class Align { kLeft, kRight };

/// A simple text table: set headers once, append rows, stream it out.
///
/// Numeric cells should be pre-formatted by the caller (see format_double);
/// Table only handles layout. Rows shorter than the header are padded with
/// empty cells; longer rows throw std::invalid_argument.
class Table {
 public:
  /// Creates a table with the given column headers (at least one).
  explicit Table(std::vector<std::string> headers);

  /// Appends one row. Must not have more cells than there are headers.
  void add_row(std::vector<std::string> cells);

  /// Sets the alignment for one column (default is kRight).
  void set_align(std::size_t column, Align align);

  /// Renders the table (header, separator, rows) to `out`.
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<Align> aligns_;
};

/// Formats a double with `precision` digits after the decimal point
/// (negative counts as 0), byte for byte as printf's "%.*f" would, at
/// any magnitude and precision: "nan", "inf" and "-0.0000" included.
[[nodiscard]] std::string format_double(double value, int precision = 4);

/// Formats a double as a percentage with `precision` digits, e.g. "12.3%".
[[nodiscard]] std::string format_percent(double fraction, int precision = 1);

/// Prints a section heading (title underlined with '=') to `out`.
void print_heading(std::ostream& out, std::string_view title);

}  // namespace fedshare::io
