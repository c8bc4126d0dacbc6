#include "lp/matrix.hpp"

#include <algorithm>
#include <stdexcept>

namespace fedshare::lp {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at: index out of range");
  }
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at: index out of range");
  }
  return (*this)(r, c);
}

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
