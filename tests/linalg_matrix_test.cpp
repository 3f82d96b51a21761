// Tests for the dense row-major Matrix.

#include <gtest/gtest.h>

#include "linalg/matrix.hpp"
#include "util/assert.hpp"

namespace coupon::linalg {
namespace {

TEST(Matrix, InitializerListAndAccess) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(2, 0), 5.0);
}

TEST(Matrix, RaggedInitializerAsserts) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), coupon::AssertionError);
}

TEST(Matrix, Identity) {
  const Matrix i3 = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(i3(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, RowSpanIsContiguousView) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  auto row = m.row(1);
  row[0] = 30.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 30.0);
  EXPECT_EQ(m.row(0).size(), 2u);
}

TEST(Matrix, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.size(), 0u);
}

}  // namespace
}  // namespace coupon::linalg
