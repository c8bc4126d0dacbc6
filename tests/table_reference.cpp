#include "table_reference.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace fedshare::io::reference {

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

}  // namespace fedshare::io::reference
