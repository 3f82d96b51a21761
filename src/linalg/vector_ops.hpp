#pragma once

/// \file vector_ops.hpp
/// BLAS-1 style kernels over `std::span<double>`.
///
/// These free functions are the building blocks for the gradient
/// computations (sums of per-example gradients) and the decoders. They
/// are deliberately allocation-free; callers own all buffers.
///
/// The hot kernels (dot, axpy, scal, fill) are defined
/// inline here: they sit on the per-example gradient path, where the call
/// into a separate translation unit costs more than the loop body at the
/// p ~ 20 dimensions the benches run. Bitwise-safe to inline — every TU
/// compiles with the same flags and the loop bodies fix the association
/// order, so inlining cannot change results. Their size checks use
/// `COUPON_DCHECK` (the documented hot-inner-loop idiom in
/// util/assert.hpp): at ~10ns per kernel call an always-on branch per
/// invocation is measurable on the training bench.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "util/assert.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define COUPON_LINALG_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace coupon::linalg {

#if COUPON_LINALG_X86_DISPATCH
namespace detail {

/// AVX2 dot with the lane layout of the scalar 4-way unroll: vector lane
/// l holds exactly the scalar accumulator s_l (the sum of x[4i+l] *
/// y[4i+l]), the tail folds into s0, and the reduce is the scalar's
/// (s0 + s1) + (s2 + s3). Every lane op is the same IEEE multiply/add as
/// the scalar code, so the result is bit-identical. The target attribute
/// enables avx2 only — not fma — so the compiler cannot contract the
/// mul+add into a fused (differently-rounded) instruction.
__attribute__((target("avx2"))) inline double dot_avx2(const double* x,
                                                       const double* y,
                                                       std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  alignas(32) double s[4];
  _mm256_store_pd(s, acc);
  for (; i < n; ++i) {
    s[0] += x[i] * y[i];
  }
  return (s[0] + s[1]) + (s[2] + s[3]);
}

/// AVX2 axpy. Each element's update is the same two IEEE ops as the
/// scalar loop (no cross-element arithmetic), so vector width cannot
/// change bits; avx2-without-fma again forbids contraction.
__attribute__((target("avx2"))) inline void axpy_avx2(double alpha,
                                                      const double* x,
                                                      double* y,
                                                      std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

/// AVX2 multi-row dot: out[k] = <rows[k], w> for `count` contiguous rows
/// of length 4*NV. Hoists w into NV ymm registers for the whole pass —
/// the scalar path reloads w per row — and reproduces dot_avx2's chain
/// per row exactly: acc starts at zero, accumulates add(acc, mul(...))
/// in the same vector order, and reduces (s0 + s1) + (s2 + s3). Same
/// lane ops, same association ⇒ same bits as calling dot() per row.
template <int NV>
__attribute__((target("avx2"))) inline void dot_rows_avx2(
    const double* rows, std::size_t count, const double* w, double* out) {
  constexpr std::size_t kP = 4 * NV;
  __m256d wv[NV];
  for (int v = 0; v < NV; ++v) {
    wv[v] = _mm256_loadu_pd(w + 4 * v);
  }
  for (std::size_t k = 0; k < count; ++k, rows += kP) {
    __m256d acc = _mm256_setzero_pd();
    for (int v = 0; v < NV; ++v) {
      acc = _mm256_add_pd(acc,
                          _mm256_mul_pd(wv[v], _mm256_loadu_pd(rows + 4 * v)));
    }
    alignas(32) double s[4];
    _mm256_store_pd(s, acc);
    out[k] = (s[0] + s[1]) + (s[2] + s[3]);
  }
}

/// Row-dot companion to axpy_rows_dispatch: same shape constraints
/// (p = 4*NV, NV in {2..8}), same fallback contract (false ⇒ caller
/// calls dot() per row, which produces the same bits).
inline bool dot_rows_dispatch(const double* rows, std::size_t count,
                              std::size_t p, const double* w, double* out) {
  if (p % 4 != 0 || !__builtin_cpu_supports("avx2")) {
    return false;
  }
  switch (p / 4) {
    case 2: dot_rows_avx2<2>(rows, count, w, out); return true;
    case 3: dot_rows_avx2<3>(rows, count, w, out); return true;
    case 4: dot_rows_avx2<4>(rows, count, w, out); return true;
    case 5: dot_rows_avx2<5>(rows, count, w, out); return true;
    case 6: dot_rows_avx2<6>(rows, count, w, out); return true;
    case 7: dot_rows_avx2<7>(rows, count, w, out); return true;
    case 8: dot_rows_avx2<8>(rows, count, w, out); return true;
    default: return false;
  }
}

/// AVX2 multi-row axpy: out += sum_k coefs[k] * rows[k], rows contiguous
/// with stride 4*NV (= the row length). Keeps `out` in NV ymm
/// accumulators for the whole pass instead of loading/storing it per
/// row. Each element's update sequence is exactly the per-row scalar
/// axpy's (same mul, same add, same k order), so bits cannot change;
/// avx2-without-fma forbids contraction as above.
template <int NV>
__attribute__((target("avx2"))) inline void axpy_rows_avx2(
    const double* coefs, const double* rows, std::size_t count, double* out) {
  constexpr std::size_t kP = 4 * NV;
  __m256d acc[NV];
  for (int v = 0; v < NV; ++v) {
    acc[v] = _mm256_loadu_pd(out + 4 * v);
  }
  for (std::size_t k = 0; k < count; ++k, rows += kP) {
    const __m256d c = _mm256_set1_pd(coefs[k]);
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_add_pd(acc[v],
                             _mm256_mul_pd(c, _mm256_loadu_pd(rows + 4 * v)));
    }
  }
  for (int v = 0; v < NV; ++v) {
    _mm256_storeu_pd(out + 4 * v, acc[v]);
  }
}

/// Dispatch table over the row length p = 4*NV (NV accumulators must fit
/// the 16 ymm registers alongside the row loads; p in {8..32} covers the
/// feature counts the benches and experiments use). Returns false when
/// the shape has no specialized kernel (caller falls back to per-row
/// axpy, which produces the same bits).
inline bool axpy_rows_dispatch(const double* coefs, const double* rows,
                               std::size_t count, std::size_t p,
                               double* out) {
  if (p % 4 != 0 || !__builtin_cpu_supports("avx2")) {
    return false;
  }
  switch (p / 4) {
    case 2: axpy_rows_avx2<2>(coefs, rows, count, out); return true;
    case 3: axpy_rows_avx2<3>(coefs, rows, count, out); return true;
    case 4: axpy_rows_avx2<4>(coefs, rows, count, out); return true;
    case 5: axpy_rows_avx2<5>(coefs, rows, count, out); return true;
    case 6: axpy_rows_avx2<6>(coefs, rows, count, out); return true;
    case 7: axpy_rows_avx2<7>(coefs, rows, count, out); return true;
    case 8: axpy_rows_avx2<8>(coefs, rows, count, out); return true;
    default: return false;
  }
}

}  // namespace detail
#endif  // COUPON_LINALG_X86_DISPATCH

/// Dot product <x, y>. Requires x.size() == y.size().
inline double dot(std::span<const double> x, std::span<const double> y) {
  COUPON_DCHECK(x.size() == y.size());
  const std::size_t n = x.size();
#if COUPON_LINALG_X86_DISPATCH
  // Runtime dispatch: one cached-feature load + predictable branch. The
  // AVX2 kernel reproduces the scalar association order exactly (see
  // detail::dot_avx2), so which path runs never changes results.
  if (n >= 8 && __builtin_cpu_supports("avx2")) {
    return detail::dot_avx2(x.data(), y.data(), n);
  }
#endif
  // Four-way unrolled accumulation: measurably faster than the naive loop
  // at -O2 and keeps rounding deterministic (fixed association order).
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) {
    s0 += x[i] * y[i];
  }
  return (s0 + s1) + (s2 + s3);
}

/// y += alpha * x. Requires x.size() == y.size().
inline void axpy(double alpha, std::span<const double> x,
                 std::span<double> y) {
  COUPON_DCHECK(x.size() == y.size());
  const std::size_t n = x.size();
#if COUPON_LINALG_X86_DISPATCH
  if (n >= 8 && __builtin_cpu_supports("avx2")) {
    detail::axpy_avx2(alpha, x.data(), y.data(), n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

/// x *= alpha.
inline void scal(double alpha, std::span<double> x) {
  for (double& v : x) {
    v *= alpha;
  }
}

/// x = value everywhere.
inline void fill(std::span<double> x, double value) {
  std::fill(x.begin(), x.end(), value);
}

/// max_i |a_i - b_i|; 0 for empty spans. Sizes must match.
double max_abs_diff(std::span<const double> a, std::span<const double> b);

/// max_i |a_i|; 0 for empty spans.
double max_abs(std::span<const double> a);

}  // namespace coupon::linalg
