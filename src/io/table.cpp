#include "io/table.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <stdexcept>

namespace fedshare::io {

Table::Table(std::vector<std::string> headers) : columns_(headers.size()) {
  if (headers.empty()) {
    throw std::invalid_argument("Table: need at least one column header");
  }
  aligns_.assign(columns_, Align::kRight);
  add_row(headers);
}

void Table::reserve(std::size_t rows, std::size_t text_bytes) {
  text_.reserve(text_.size() + text_bytes);
  ends_.reserve(ends_.size() + rows * columns_);
}

void Table::open_cell() {
  if (open_ == columns_) {
    throw std::invalid_argument("Table: more cells than columns");
  }
  ++open_;
}

void Table::add_cell(std::string_view text) {
  open_cell();
  text_ += text;
  ends_.push_back(text_.size());
}

void Table::add_number(double value, int precision) {
  open_cell();
  append_double(text_, value, precision);
  ends_.push_back(text_.size());
}

void Table::end_row() {
  ends_.insert(ends_.end(), columns_ - open_, text_.size());
  open_ = 0;
}

void Table::add_row(const std::vector<std::string>& cells) {
  if (open_ + cells.size() > columns_) {
    throw std::invalid_argument("Table::add_row: more cells than columns");
  }
  for (const auto& cell : cells) add_cell(cell);
  end_row();
}

void Table::set_align(std::size_t column, Align align) {
  if (column >= aligns_.size()) {
    throw std::invalid_argument("Table::set_align: column out of range");
  }
  aligns_[column] = align;
}

void Table::print(std::string& out) const {
  const std::size_t cells = ends_.size();
  auto cell = [&](std::size_t k) {
    if (k >= cells) return std::string_view();
    const std::size_t begin = k == 0 ? 0 : ends_[k - 1];
    return std::string_view(text_).substr(begin, ends_[k] - begin);
  };
  std::vector<std::size_t> widths(columns_, 0);
  for (std::size_t k = 0; k < cells; ++k) {
    auto& width = widths[k % columns_];
    width = std::max(width, cell(k).size());
  }
  std::size_t total = 2 * (columns_ - 1);
  for (const std::size_t width : widths) total += width;
  // The header row, then one line per row; each at most `total` wide.
  const std::size_t rows = (cells + columns_ - 1) / columns_;
  out.reserve(out.size() + (rows + 1) * (total + 1));
  auto emit = [&](std::size_t row) {
    for (std::size_t c = 0; c < columns_; ++c) {
      if (c != 0) out.append(2, ' ');
      const std::string_view text = cell(row * columns_ + c);
      const std::size_t pad = widths[c] - text.size();
      if (aligns_[c] == Align::kRight) out.append(pad, ' ');
      out += text;
      if (aligns_[c] == Align::kLeft && c + 1 != columns_) {
        out.append(pad, ' ');
      }
    }
    out += '\n';
  };
  emit(0);
  out.append(total, '-');
  out += '\n';
  for (std::size_t row = 1; row < rows; ++row) emit(row);
}

void Table::print(std::ostream& out) const {
  std::string text;
  print(text);
  out << text;
}

void append_double(std::string& out, double value, int precision) {
  if (precision < 0) precision = 0;
  // Sign, the 309 integer digits of the largest finite double, the
  // point and `precision` decimals; "-inf" and "-nan" are shorter.
  constexpr std::size_t kIntegerPart = 1 + 309;
  const std::size_t size =
      kIntegerPart + 1 + static_cast<std::size_t>(precision);
  char stack[kIntegerPart + 1 + 32];
  if (size <= sizeof stack) {
    const std::to_chars_result r = std::to_chars(
        stack, stack + size, value, std::chars_format::fixed, precision);
    out.append(stack, r.ptr);
    return;
  }
  const std::size_t at = out.size();
  out.resize(at + size);
  const std::to_chars_result r =
      std::to_chars(out.data() + at, out.data() + out.size(), value,
                    std::chars_format::fixed, precision);
  out.resize(static_cast<std::size_t>(r.ptr - out.data()));
}

std::string format_double(double value, int precision) {
  std::string out;
  append_double(out, value, precision);
  return out;
}

std::string format_percent(double fraction, int precision) {
  return format_double(fraction * 100.0, precision) + "%";
}

void append_heading(std::string& out, std::string_view title) {
  out += '\n';
  out += title;
  out += '\n';
  out.append(title.size(), '=');
  out += '\n';
}

void print_heading(std::ostream& out, std::string_view title) {
  std::string text;
  append_heading(text, title);
  out << text;
}

}  // namespace fedshare::io
