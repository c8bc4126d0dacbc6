#include "lp/matrix.hpp"

#include <algorithm>
#include <stdexcept>

namespace fedshare::lp {

void Matrix::throw_row_out_of_range() {
  throw std::out_of_range("Matrix: row out of range");
}

void Matrix::swap_rows(std::size_t a, std::size_t b) {
  if (a >= rows_ || b >= rows_) {
    throw std::out_of_range("Matrix::swap_rows: row out of range");
  }
  if (a == b) return;
  std::swap_ranges(row_data(a), row_data(a) + cols_, row_data(b));
}

}  // namespace fedshare::lp
