#include "linalg/matrix.hpp"

namespace coupon::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    COUPON_ASSERT_MSG(row.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 1.0;
  }
  return m;
}

}  // namespace coupon::linalg
