#pragma once

/// \file dataset.hpp
/// Training dataset container: one row per example, labels in {-1, +1}.

#include <vector>

#include "linalg/matrix.hpp"

namespace coupon::data {

/// Dense supervised dataset for binary classification.
struct Dataset {
  linalg::Matrix x;       ///< m x p feature matrix (row = example)
  std::vector<double> y;  ///< m labels in {-1.0, +1.0}

  std::size_t num_examples() const { return x.rows(); }
  std::size_t num_features() const { return x.cols(); }
};

}  // namespace coupon::data
