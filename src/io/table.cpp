#include "io/table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace fedshare::io {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table: need at least one column header");
  }
  aligns_.assign(headers_.size(), Align::kRight);
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() > headers_.size()) {
    throw std::invalid_argument("Table::add_row: more cells than columns");
  }
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::set_align(std::size_t column, Align align) {
  if (column >= aligns_.size()) {
    throw std::invalid_argument("Table::set_align: column out of range");
  }
  aligns_[column] = align;
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) out << "  ";
      const auto pad = widths[c] - cells[c].size();
      if (aligns_[c] == Align::kRight) out << std::string(pad, ' ');
      out << cells[c];
      if (aligns_[c] == Align::kLeft && c + 1 != cells.size()) {
        out << std::string(pad, ' ');
      }
    }
    out << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c == 0 ? 0 : 2);
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string format_double(double value, int precision) {
  if (precision < 0) precision = 0;
  // Sign, the 309 integer digits of the largest finite double, the
  // point and `precision` decimals; "-inf" and "-nan" are shorter.
  constexpr std::size_t kIntegerPart = 1 + 309;
  const std::size_t size =
      kIntegerPart + 1 + static_cast<std::size_t>(precision);
  char stack[kIntegerPart + 1 + 32];
  std::string heap;
  char* first = stack;
  if (size > sizeof stack) {
    heap.resize(size);
    first = heap.data();
  }
  const std::to_chars_result r = std::to_chars(
      first, first + size, value, std::chars_format::fixed, precision);
  if (!heap.empty()) {
    heap.resize(static_cast<std::size_t>(r.ptr - first));
    return heap;
  }
  return std::string(first, r.ptr);
}

std::string format_percent(double fraction, int precision) {
  return format_double(fraction * 100.0, precision) + "%";
}

void print_heading(std::ostream& out, std::string_view title) {
  out << '\n' << title << '\n' << std::string(title.size(), '=') << '\n';
}

}  // namespace fedshare::io
