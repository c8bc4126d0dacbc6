// Small dense row-major matrix of doubles.
//
// This is deliberately minimal: the simplex solver and the allocation
// LP-relaxation need contiguous storage, row operations, and little else.
#pragma once

#include <cstddef>
#include <vector>

namespace fedshare::lp {

/// Dense row-major matrix. Element access is unchecked; the row
/// operations check their row indices.
class Matrix {
 public:
  Matrix() = default;

  /// Re-shapes to rows x cols filled with `fill`, reusing the existing
  /// allocation when capacity allows (the revised simplex refactorizes
  /// on a fixed cadence and must not pay an allocation each time).
  void assign(std::size_t rows, std::size_t cols, double fill) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  /// Unchecked element access.
  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// row(r) += factor * row(src). Rows must be distinct and in range.
  /// Inline, like scale_row: a simplex pivot makes one call per row.
  void add_scaled_row(std::size_t r, std::size_t src, double factor) {
    if (r >= rows_ || src >= rows_) throw_row_out_of_range();
    double* dst = row_data(r);
    const double* s = row_data(src);
    for (std::size_t c = 0; c < cols_; ++c) dst[c] += factor * s[c];
  }

  /// row(r) *= factor.
  void scale_row(std::size_t r, double factor) {
    if (r >= rows_) throw_row_out_of_range();
    double* dst = row_data(r);
    for (std::size_t c = 0; c < cols_; ++c) dst[c] *= factor;
  }

  /// Swaps two rows.
  void swap_rows(std::size_t a, std::size_t b);

  /// Pointer to the start of row r (contiguous cols() doubles).
  [[nodiscard]] double* row_data(std::size_t r) noexcept {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] const double* row_data(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

 private:
  [[noreturn]] static void throw_row_out_of_range();

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace fedshare::lp
