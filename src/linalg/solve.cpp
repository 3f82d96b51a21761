#include "linalg/solve.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace coupon::linalg {

namespace {

constexpr double kPivotTol = 1e-12;

/// Householder QR of `qr` in place (rows >= cols), using `v` as
/// reflector scratch. Returns true when rank deficient.
bool householder_factor(Matrix& qr, std::vector<double>& tau,
                        std::vector<double>& v) {
  COUPON_ASSERT_MSG(qr.rows() >= qr.cols(),
                    "lstsq_into requires rows >= cols, got "
                        << qr.rows() << "x" << qr.cols());
  const std::size_t m = qr.rows();
  const std::size_t n = qr.cols();
  tau.assign(n, 0.0);
  v.resize(m);
  bool rank_deficient = false;

  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder reflector annihilating column k below row k.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      norm = std::hypot(norm, qr(i, k));
    }
    if (norm < kPivotTol) {
      rank_deficient = true;
      tau[k] = 0.0;
      continue;
    }
    const double alpha = qr(k, k) >= 0.0 ? -norm : norm;
    const double vk = qr(k, k) - alpha;
    v[k] = vk;
    for (std::size_t i = k + 1; i < m; ++i) {
      v[i] = qr(i, k);
    }
    const double vnorm2 = vk * vk + [&] {
      double s = 0.0;
      for (std::size_t i = k + 1; i < m; ++i) {
        s += v[i] * v[i];
      }
      return s;
    }();
    if (vnorm2 < kPivotTol * kPivotTol) {
      rank_deficient = true;
      tau[k] = 0.0;
      continue;
    }
    const double t = 2.0 / vnorm2;
    tau[k] = t;

    // Apply H = I - tau v v^T to the trailing block columns [k, n).
    for (std::size_t c = k; c < n; ++c) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) {
        s += v[i] * qr(i, c);
      }
      s *= t;
      for (std::size_t i = k; i < m; ++i) {
        qr(i, c) -= s * v[i];
      }
    }
    // R_kk was just produced in place; store v below the diagonal scaled
    // so the leading entry is implicit (standard compact storage).
    COUPON_ASSERT(std::abs(qr(k, k)) > 0.0);
    for (std::size_t i = k + 1; i < m; ++i) {
      qr(i, k) = v[i] / vk;
    }
    // Keep tau in the convention where the reflector is
    // H = I - tau_eff u u^T with u = [1, qr(k+1..m, k)]; tau_eff = tau*vk^2.
    tau[k] = t * vk * vk;
  }
  return rank_deficient;
}

/// Applies the reflectors of a factored `qr` to `b` (via scratch `y`) and
/// back-substitutes into `x`. Returns false on a numerically-singular R
/// diagonal.
bool householder_solve(const Matrix& qr, std::span<const double> tau,
                       std::span<const double> b, std::vector<double>& y,
                       std::span<double> x) {
  const std::size_t m = qr.rows();
  const std::size_t n = qr.cols();
  COUPON_ASSERT(b.size() == m);
  COUPON_ASSERT(x.size() == n);
  y.assign(b.begin(), b.end());

  // y = Q^T b: apply reflectors in order.
  for (std::size_t k = 0; k < n; ++k) {
    const double t = tau[k];
    if (t == 0.0) {
      continue;
    }
    double s = y[k];
    for (std::size_t i = k + 1; i < m; ++i) {
      s += qr(i, k) * y[i];
    }
    s *= t;
    y[k] -= s;
    for (std::size_t i = k + 1; i < m; ++i) {
      y[i] -= s * qr(i, k);
    }
  }
  // Back substitution on R x = y[0..n).
  for (std::size_t kk = n; kk > 0; --kk) {
    const std::size_t k = kk - 1;
    double s = y[k];
    for (std::size_t j = k + 1; j < n; ++j) {
      s -= qr(k, j) * x[j];
    }
    const double rkk = qr(k, k);
    if (std::abs(rkk) < kPivotTol) {
      return false;
    }
    x[k] = s / rkk;
  }
  return true;
}

}  // namespace

std::optional<std::vector<double>> solve(const Matrix& a,
                                         std::span<const double> b) {
  COUPON_ASSERT(a.rows() == a.cols());
  const std::size_t n = a.rows();
  COUPON_ASSERT(b.size() == n);
  // P*A = L*U packed in place: L (unit lower) below the diagonal, U on
  // and above it. piv[k] is the row swapped into position k at step k.
  Matrix m = a;
  std::vector<std::size_t> piv(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |entry| in column k at or below the diagonal.
    std::size_t p = k;
    double best = std::abs(m(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(m(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (best < kPivotTol) {
      return std::nullopt;
    }
    piv[k] = p;
    if (p != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(m(k, c), m(p, c));
      }
    }
    const double pivot = m(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double l = m(i, k) / pivot;
      m(i, k) = l;
      if (l == 0.0) {
        continue;
      }
      for (std::size_t c = k + 1; c < n; ++c) {
        m(i, c) -= l * m(k, c);
      }
    }
  }
  std::vector<double> x(b.begin(), b.end());
  // Apply the recorded row swaps, then forward/back substitution.
  for (std::size_t k = 0; k < n; ++k) {
    if (piv[k] != k) {
      std::swap(x[k], x[piv[k]]);
    }
  }
  for (std::size_t i = 1; i < n; ++i) {
    double s = x[i];
    for (std::size_t j = 0; j < i; ++j) {
      s -= m(i, j) * x[j];
    }
    x[i] = s;
  }
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = x[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      s -= m(i, j) * x[j];
    }
    x[i] = s / m(i, i);
  }
  return x;
}

bool lstsq_into(const Matrix& a, std::span<const double> b,
                std::span<double> x, LstsqWorkspace& ws) {
  ws.qr = a;  // vector copy-assignment reuses ws.qr's storage
  if (householder_factor(ws.qr, ws.tau, ws.v)) {
    return false;
  }
  return householder_solve(ws.qr, ws.tau, b, ws.y, x);
}

}  // namespace coupon::linalg
