// Reference table renderer: the row-of-strings io::Table that the flat
// cell arena replaced. Each row is its own std::vector<std::string>,
// each padded cell its own std::string, and every piece goes through
// an ostream. Kept out of the library as the oracle of the
// differential suite in tests/test_io.cpp, which requires io::Table to
// render byte for byte what this class renders from the same cells.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "io/table.hpp"

namespace fedshare::io::reference {

class Table {
 public:
  /// Creates a table with the given column headers (at least one).
  explicit Table(std::vector<std::string> headers);

  /// Appends one row, padded with empty cells to the header's width.
  /// Must not have more cells than there are headers.
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

}  // namespace fedshare::io::reference
