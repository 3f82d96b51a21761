#pragma once

/// \file cyclic_repetition.hpp
/// The cyclic repetition (CR) gradient-coding scheme of Tandon et al.
/// ("Gradient Coding", NIPS ML Systems 2016) — the paper's main coded
/// baseline.
///
/// With m = n units and load r, the scheme tolerates any s = r - 1
/// stragglers in the worst case: the master can decode from *any* n - s
/// workers, giving recovery threshold K = n - r + 1 (Eq. 7). Worker i
/// holds the r cyclically consecutive units {i, i+1, ..., i+r-1 mod n}
/// and ships one linear combination of their partial gradients with
/// coefficients from row i of a coding matrix B.
///
/// Construction (Tandon et al., Algorithm 2): draw H in R^{s x n} with
/// i.i.d. N(0,1) entries, then overwrite the last column so every row of
/// H sums to zero (hence H * 1 = 0). Row i of B is the unique vector
/// supported on the cyclic window with leading coefficient 1 lying in
/// null(H) — found by an s x s linear solve. Because the rows of B span
/// null(H) generically and 1 is in null(H), every (n-s)-subset of rows
/// can express the all-ones vector: the decoder solves B_W^T a = 1 by
/// least squares and outputs sum_w a_w z_w.

#include "core/scheme.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"

namespace coupon::core {

/// Scratch reused by `decoding_coefficients_into` so the per-iteration CR
/// decode performs zero allocations once warm. `coeffs` holds the result.
struct CrDecodeWorkspace {
  linalg::Matrix bwt;
  std::vector<double> ones;
  std::vector<double> coeffs;
  linalg::LstsqWorkspace lstsq;
};

/// Cyclic-repetition gradient coding (requires m == n).
class CyclicRepetitionScheme final : public Scheme {
 public:
  /// Builds the coding matrix, redrawing H (at most a handful of times;
  /// failure has probability zero) until the construction validates.
  /// Requires 1 <= load <= num_workers; num_units is forced to equal
  /// num_workers (group into super-examples otherwise; footnote 1).
  CyclicRepetitionScheme(std::size_t num_workers, std::size_t load,
                         stats::Rng& rng);

  std::string_view registry_name() const override { return "cr"; }
  std::string_view name() const override { return "cyclic repetition"; }

  void encode_into(std::size_t worker, const UnitGradientSource& source,
                   std::span<const double> w,
                   comm::Message& out) const override;
  double message_units(std::size_t) const override { return 1.0; }
  std::vector<std::int64_t> message_meta(std::size_t worker) const override {
    return {static_cast<std::int64_t>(worker)};
  }
  std::unique_ptr<Collector> make_collector() const override;

  /// Eq. (7): K = m - r + 1 = n - s.
  std::optional<double> expected_recovery_threshold() const override {
    return static_cast<double>(num_workers() - stragglers_tolerated());
  }

  /// s = r - 1.
  std::size_t stragglers_tolerated() const { return load_ - 1; }

  /// Exact wait quota: the collector counts distinct workers up to
  /// n - s, so no shorter arrival prefix can be ready.
  std::size_t min_arrivals_hint() const override {
    return num_workers() - stragglers_tolerated();
  }

  /// The n x n coding matrix B (row i = worker i's combination).
  const linalg::Matrix& coding_matrix() const { return b_; }

  /// Solves a^T B_W = 1^T for the given worker subset (any set of at
  /// least n - s distinct workers), writing the |W| coefficients into
  /// `ws.coeffs`. Returns false when the subset is too small or the
  /// solve is numerically rank deficient.
  bool decoding_coefficients_into(std::span<const std::size_t> workers,
                                  CrDecodeWorkspace& ws) const;

 private:
  std::size_t load_;
  linalg::Matrix b_;
};

}  // namespace coupon::core
