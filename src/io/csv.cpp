#include "io/csv.hpp"

#include <ostream>

#include "io/table.hpp"

namespace fedshare::io {

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (const char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
}

void CsvWriter::write_row(const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (const double v : values) cells.push_back(format_double(v, precision));
  write_row(cells);
}

}  // namespace fedshare::io
