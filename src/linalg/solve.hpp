#pragma once

/// \file solve.hpp
/// The two dense solves of the cyclic-repetition (CR) baseline
/// (core/cyclic_repetition): a square solve per coding-matrix row when
/// the scheme is built, and a least-squares decode per iteration.
///
/// The CR decoder recovers the all-ones combination by solving the
/// overdetermined system `B_W^T a = 1` in the least-squares sense;
/// `lstsq_into` below is that path.

#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace coupon::linalg {

/// Solves A x = b for square A by partial-pivot LU. Returns nullopt if A
/// is numerically singular.
std::optional<std::vector<double>> solve(const Matrix& a,
                                         std::span<const double> b);

/// Scratch for `lstsq_into`: factor storage and solve temporaries reused
/// across calls, so a warm same-shape solve performs zero allocations.
struct LstsqWorkspace {
  Matrix qr;              ///< factor storage (copy of A, factored in place)
  std::vector<double> tau;
  std::vector<double> v;  ///< Householder reflector scratch
  std::vector<double> y;  ///< Q^T b scratch
};

/// Least squares by Householder QR: solves min_x ||A x - b||_2 into `x`
/// (size A.cols()) for A with rows >= cols. The result depends only on
/// (A, b), never on what `ws` held before. Returns false when A is
/// numerically rank deficient.
bool lstsq_into(const Matrix& a, std::span<const double> b,
                std::span<double> x, LstsqWorkspace& ws);

}  // namespace coupon::linalg
