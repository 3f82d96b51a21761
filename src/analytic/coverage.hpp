#pragma once

/// \file coverage.hpp
/// Exact coverage profiles: the combinatorial half of the analytic
/// oracle (DESIGN.md §10).
///
/// With iid compute times and equal per-worker loads, the identity order
/// in which workers' messages arrive is a uniform random permutation,
/// independent of the sorted arrival times; and conditional on any set
/// of present (non-dropped) workers, the first k arrivals form a uniform
/// k-subset of all n workers. Every scheme's "when is the master ready?"
/// question therefore reduces to one table
///
///     A[j] = P(a uniform j-subset of the n workers makes the
///              scheme's collector ready),       j = 0..n,
///
/// the *coverage profile* of the realized placement. A is nondecreasing,
/// and P(ready exactly at the k-th arrival | R present) = A[k] - A[k-1]
/// for k < R, with the remaining 1 - A[R-1] mass landing on the full
/// drain at k = R (success at R or coverage failure). These functions
/// compute A exactly per combinatorial structure:
///
///   * threshold schemes (uncoded: k = n; CR: k = n-r+1) — indicator;
///   * partition coverage (FR blocks, BCC realized batch choices) — a
///     subset-counting DP over the group-size multiset;
///   * arbitrary unit sets (simple_random) — exact enumeration of all
///     2^n worker subsets via unit bitmasks (n <= 24, m <= 64).
///
/// Counts are carried in doubles (exact up to the usual 1e-15 relative
/// rounding; C(100, 50) ~ 1e29 is far below the double range).
///
/// `coverage_profile` picks the structure for one realized built-in
/// scheme instance. It is the only scheme-specific knowledge the oracle
/// needs: everything downstream (expected runtimes, quantiles, failure
/// probabilities under drops) is scheme-agnostic order-statistics work in
/// predictor.cpp.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheme.hpp"

namespace coupon::analytic {

/// A[j] = [j >= threshold]: ready as soon as `threshold` of the `n`
/// workers are heard (uncoded: threshold = n, CR: threshold = n-r+1).
std::vector<double> coverage_threshold(std::size_t n, std::size_t threshold);

/// Partition coverage: each worker belongs to exactly one group;
/// `group_sizes` lists the number of workers per group (must sum to n).
/// Ready iff every group has at least one member in the subset. A group
/// of size 0 (a BCC batch no worker picked) makes coverage impossible:
/// A[j] = 0 for all j — the realized placement fails every iteration.
std::vector<double> coverage_partition(std::size_t n,
                                       const std::vector<std::size_t>&
                                           group_sizes);

/// General unit-set coverage: worker i covers the units in bitmask
/// `unit_masks[i]`; ready iff the subset's union covers all `num_units`
/// units. Exact 2^n enumeration — requires n <= 24 and num_units <= 64
/// (callers gate and report larger instances as unsupported).
std::vector<double> coverage_union_masks(
    const std::vector<std::uint64_t>& unit_masks, std::size_t num_units);

/// Binomial coefficient table row: C(n, 0..n) in doubles.
std::vector<double> binomial_row(std::size_t n);

/// A scheme `coverage_profile` reduces, with its one-line `--list` text.
struct ModeledScheme {
  std::string_view name;  ///< `core::SchemeRegistry` name
  std::string_view description;
};

/// The eight built-in schemes the oracle models, in registry order. sgc
/// is listed so `--predict --scheme all` explains why it declines it.
inline constexpr std::array<ModeledScheme, 8> kModeledSchemes{{
    {"uncoded", "threshold n (wait-for-all; needs n | m for equal loads)"},
    {"fr", "partition coverage over n/r replicated blocks"},
    {"cr", "threshold n-r+1 (any n-s workers decode)"},
    {"bcc", "partition coverage over the realized batch choices"},
    {"simple_random",
     "exact unit-set coverage by 2^n enumeration (n<=24, m<=64)"},
    {"gc_cyclic",
     "threshold n-r+1 (any n-s workers decode; r-unit messages)"},
    {"sgc",
     "unsupported: approximate decode has no exact-runtime reduction"},
    {"gc_nested",
     "threshold n-r+1 (ladder decodes by n-s; d(r)-unit messages)"},
}};

/// True when `name` is one of kModeledSchemes.
bool is_modeled_scheme(std::string_view name);

/// The reduction of one realized scheme instance.
struct CoverageProfile {
  /// A[j] for j = 0..n, as above.
  std::vector<double> table;
  /// Per-worker message size in gradient units (equal across workers —
  /// a precondition of the reduction).
  double message_units = 1.0;
};

/// Either a profile or a human-readable reason why the scheme instance
/// has no exact reduction.
struct CoverageResult {
  std::optional<CoverageProfile> profile;
  std::string reason;  ///< set iff !profile
};

/// Reduces the realized placement of `scheme` (its drawn batch choices
/// included) to its coverage profile. The reduction is exact only when
/// workers are exchangeable in the timing process — equal compute loads
/// and equal message sizes — so it declines with a reason when they are
/// not (uncoded with n not dividing m, BCC with r not dividing m), when
/// `scheme` is not the built-in implementation behind its registry name,
/// when simple_random is too large for 2^n enumeration, and for sgc,
/// whose approximate decode makes E[T] the wrong ranking metric.
CoverageResult coverage_profile(const core::Scheme& scheme);

}  // namespace coupon::analytic
