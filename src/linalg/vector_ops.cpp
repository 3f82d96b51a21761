#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace coupon::linalg {

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  COUPON_ASSERT(a.size() == b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

double max_abs(std::span<const double> a) {
  double m = 0.0;
  for (double v : a) {
    m = std::max(m, std::abs(v));
  }
  return m;
}

}  // namespace coupon::linalg
