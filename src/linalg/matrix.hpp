#pragma once

/// \file matrix.hpp
/// Dense row-major matrix of doubles.
///
/// Row-major layout matches the access pattern of the gradient kernels:
/// each training example is one contiguous row, so per-example gradients
/// stream rows sequentially.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace coupon::linalg {

/// Dense rows x cols matrix, row-major, contiguous storage.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix initialized to `value`.
  Matrix(std::size_t rows, std::size_t cols, double value = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// Builds from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  /// Reshapes to rows x cols and fills every entry with `value`. Reuses
  /// the existing storage, so a same-or-smaller reshape never allocates —
  /// decode scratch matrices rely on this.
  void resize(std::size_t rows, std::size_t cols, double value = 0.0) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, value);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    COUPON_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    COUPON_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Contiguous view of row `r`.
  std::span<double> row(std::size_t r) {
    COUPON_ASSERT(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    COUPON_ASSERT(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Whole-storage views (row-major).
  std::span<double> data() { return {data_.data(), data_.size()}; }
  std::span<const double> data() const { return {data_.data(), data_.size()}; }

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace coupon::linalg
