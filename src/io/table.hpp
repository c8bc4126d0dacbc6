// Aligned text-table formatting for the CLI report, benchmark and example
// output.
//
// The figure-reproduction harnesses print the data series behind each of
// the paper's plots, and the report its value and share tables; Table
// gives them a uniform, diff-friendly layout.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace fedshare::io {

/// Column alignment inside a Table.
enum class Align { kLeft, kRight };

/// A text table: set headers once, append rows, render it.
///
/// Every cell, the headers included, lives in one character arena with
/// one end offset per cell, row after row. A hot caller appends a row
/// cell by cell (add_cell, add_number, then end_row); a number cell is
/// written with std::to_chars straight into the arena. add_row appends
/// a finished row of strings the same way. Rows shorter than the header
/// are padded with empty cells; a row with more cells than there are
/// headers throws std::invalid_argument.
class Table {
 public:
  /// Creates a table with the given column headers (at least one).
  explicit Table(std::vector<std::string> headers);

  /// Makes room for `rows` more rows holding `text_bytes` characters.
  void reserve(std::size_t rows, std::size_t text_bytes);

  /// Appends `text` as the next cell of the current row.
  void add_cell(std::string_view text);

  /// Appends `value` as the next cell, as format_double(value, precision).
  void add_number(double value, int precision);

  /// Closes the current row, padding it with empty cells.
  void end_row();

  /// Appends one row: add_cell for each cell, then end_row.
  void add_row(const std::vector<std::string>& cells);

  /// Sets the alignment for one column (default is kRight).
  void set_align(std::size_t column, Align align);

  /// Appends the table (header, separator, rows) to `out`. A row still
  /// open is rendered as end_row would close it.
  void print(std::string& out) const;

  /// Renders the table to `out`.
  void print(std::ostream& out) const;

 private:
  // Opens the next cell of the current row.
  void open_cell();

  std::size_t columns_;
  // Every cell's characters, row after row; cell k ends at ends_[k] and
  // starts where cell k - 1 ends (cell 0 at 0). Row 0 is the headers.
  std::string text_;
  std::vector<std::size_t> ends_;
  std::size_t open_ = 0;  // cells in the row being appended
  std::vector<Align> aligns_;
};

/// Formats a double with `precision` digits after the decimal point
/// (negative counts as 0), byte for byte as printf's "%.*f" would, at
/// any magnitude and precision: "nan", "inf" and "-0.0000" included.
[[nodiscard]] std::string format_double(double value, int precision = 4);

/// Appends format_double(value, precision) to `out`.
void append_double(std::string& out, double value, int precision);

/// Formats a double as a percentage with `precision` digits, e.g. "12.3%".
[[nodiscard]] std::string format_percent(double fraction, int precision = 1);

/// Appends a section heading (title underlined with '=') to `out`.
void append_heading(std::string& out, std::string_view title);

/// Prints a section heading (title underlined with '=') to `out`.
void print_heading(std::ostream& out, std::string_view title);

}  // namespace fedshare::io
