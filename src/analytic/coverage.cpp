#include "analytic/coverage.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>

#include "core/bcc.hpp"
#include "core/cyclic_repetition.hpp"
#include "core/fractional_repetition.hpp"
#include "core/gc_cyclic.hpp"
#include "core/gc_nested.hpp"
#include "core/sgc.hpp"
#include "core/simple_random.hpp"
#include "core/uncoded.hpp"
#include "util/assert.hpp"

namespace coupon::analytic {

namespace {

/// The exchangeability preconditions shared by every reduction: all
/// workers compute the same number of units and ship the same-size
/// message. Returns the common message size, or a reason.
std::optional<std::string> check_exchangeable(const core::Scheme& scheme,
                                              double* message_units) {
  const auto& placement = scheme.placement();
  const std::size_t n = scheme.num_workers();
  const std::size_t load0 = placement.worker(0).size();
  for (std::size_t w = 1; w < n; ++w) {
    if (placement.worker(w).size() != load0) {
      std::ostringstream out;
      out << "unequal per-worker loads (|G_0|=" << load0 << ", |G_" << w
          << "|=" << placement.worker(w).size()
          << "): compute times are not iid, so the order-statistic "
             "reduction does not apply";
      return out.str();
    }
  }
  const double units0 = scheme.message_units(0);
  for (std::size_t w = 1; w < n; ++w) {
    if (scheme.message_units(w) != units0) {
      return "unequal per-worker message sizes: the serialized ingress "
             "no longer has one common service time";
    }
  }
  *message_units = units0;
  return std::nullopt;
}

/// `scheme` as the built-in type behind its registry name, or nullptr
/// with `reason` set when something else squats on that name.
template <typename ConcreteScheme>
const ConcreteScheme* cast_or_reason(const core::Scheme& scheme,
                                     std::string_view expected,
                                     std::string* reason) {
  const auto* concrete = dynamic_cast<const ConcreteScheme*>(&scheme);
  if (concrete == nullptr) {
    std::ostringstream out;
    out << "scheme instance registered as '" << scheme.registry_name()
        << "' is not the built-in " << expected
        << " implementation this model understands";
    *reason = out.str();
  }
  return concrete;
}

/// Workers per group when worker w belongs to group `group_of(w)`.
template <typename GroupOf>
std::vector<std::size_t> group_sizes(std::size_t num_groups, std::size_t n,
                                     GroupOf group_of) {
  std::vector<std::size_t> sizes(num_groups, 0);
  for (std::size_t w = 0; w < n; ++w) {
    ++sizes[group_of(w)];
  }
  return sizes;
}

}  // namespace

std::vector<double> binomial_row(std::size_t n) {
  std::vector<double> row(n + 1, 0.0);
  row[0] = 1.0;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = i; j >= 1; --j) {
      row[j] += row[j - 1];
    }
  }
  return row;
}

std::vector<double> coverage_threshold(std::size_t n, std::size_t threshold) {
  COUPON_ASSERT(threshold >= 1 && threshold <= n);
  std::vector<double> a(n + 1, 0.0);
  for (std::size_t j = threshold; j <= n; ++j) {
    a[j] = 1.0;
  }
  return a;
}

std::vector<double> coverage_partition(
    std::size_t n, const std::vector<std::size_t>& group_sizes) {
  COUPON_ASSERT(!group_sizes.empty());
  COUPON_ASSERT(std::accumulate(group_sizes.begin(), group_sizes.end(),
                                std::size_t{0}) == n);
  std::vector<double> a(n + 1, 0.0);
  for (std::size_t size : group_sizes) {
    if (size == 0) {
      return a;  // an uncovered group: no subset is ever ready
    }
  }

  // covering[j] = number of j-subsets of the n workers hitting every
  // group at least once: the coefficient of x^j in
  // prod_groups (sum_{i=1..c_b} C(c_b, i) x^i).
  std::vector<double> covering(n + 1, 0.0);
  covering[0] = 1.0;
  std::size_t degree = 0;  // highest populated coefficient so far
  for (std::size_t size : group_sizes) {
    const std::vector<double> choose = binomial_row(size);
    std::vector<double> next(n + 1, 0.0);
    for (std::size_t j = 0; j <= degree; ++j) {
      if (covering[j] == 0.0) {
        continue;
      }
      for (std::size_t i = 1; i <= size && j + i <= n; ++i) {
        next[j + i] += covering[j] * choose[i];
      }
    }
    covering = std::move(next);
    degree += size;
  }

  const std::vector<double> all = binomial_row(n);
  for (std::size_t j = 1; j <= n; ++j) {
    a[j] = covering[j] / all[j];
  }
  return a;
}

std::vector<double> coverage_union_masks(
    const std::vector<std::uint64_t>& unit_masks, std::size_t num_units) {
  const std::size_t n = unit_masks.size();
  COUPON_ASSERT_MSG(n >= 1 && n <= 24,
                    "2^n subset enumeration needs n <= 24, got n=" << n);
  COUPON_ASSERT_MSG(num_units >= 1 && num_units <= 64,
                    "unit bitmasks need m <= 64, got m=" << num_units);
  const std::uint64_t full = num_units == 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << num_units) - 1;

  // union_of[s] built incrementally: union over the workers in subset s.
  const std::size_t subsets = std::size_t{1} << n;
  std::vector<std::uint64_t> union_of(subsets, 0);
  std::vector<double> covering(n + 1, 0.0);
  covering[0] = full == 0 ? 1.0 : 0.0;
  for (std::size_t s = 1; s < subsets; ++s) {
    const std::size_t low = std::countr_zero(s);
    union_of[s] = union_of[s & (s - 1)] | unit_masks[low];
    if (union_of[s] == full) {
      covering[static_cast<std::size_t>(std::popcount(s))] += 1.0;
    }
  }

  const std::vector<double> all = binomial_row(n);
  std::vector<double> a(n + 1, 0.0);
  for (std::size_t j = 0; j <= n; ++j) {
    a[j] = covering[j] / all[j];
  }
  return a;
}

bool is_modeled_scheme(std::string_view name) {
  return std::ranges::any_of(kModeledSchemes, [name](const ModeledScheme& s) {
    return s.name == name;
  });
}

CoverageResult coverage_profile(const core::Scheme& scheme) {
  const std::string_view name = scheme.registry_name();
  const std::size_t n = scheme.num_workers();
  const std::size_t m = scheme.num_units();
  // Each branch checks the instance and records which structure applies;
  // the table is built once exchangeability holds.
  std::string reason;
  std::size_t threshold = 0;        // threshold schemes
  std::vector<std::size_t> groups;  // partition schemes
  bool unit_sets = false;           // simple_random
  if (name == "uncoded") {
    if (cast_or_reason<core::UncodedScheme>(scheme, "uncoded", &reason)) {
      threshold = n;
    }
  } else if (name == "fr") {
    if (const auto* fr = cast_or_reason<core::FractionalRepetitionScheme>(
            scheme, "fractional repetition", &reason)) {
      groups = group_sizes(fr->num_blocks(), n, [fr](std::size_t w) {
        return fr->block_of_worker(w);
      });
    }
  } else if (name == "cr") {
    if (const auto* cr = cast_or_reason<core::CyclicRepetitionScheme>(
            scheme, "cyclic repetition", &reason)) {
      threshold = n - cr->stragglers_tolerated();
    }
  } else if (name == "bcc") {
    // The profile conditions on the drawn batch choices sigma_1..sigma_n,
    // exactly like one simulated run does. A batch no worker picked makes
    // every iteration a coverage failure (A == 0 throughout).
    if (const auto* bcc =
            cast_or_reason<core::BccScheme>(scheme, "BCC", &reason)) {
      groups = group_sizes(bcc->num_batches(), n, [bcc](std::size_t w) {
        return bcc->batch_of_worker(w);
      });
    }
  } else if (name == "simple_random") {
    if (cast_or_reason<core::SimpleRandomScheme>(scheme, "simple randomized",
                                                 &reason)) {
      if (n > 24 || m > 64) {
        std::ostringstream out;
        out << "exact subset enumeration needs n <= 24 and m <= 64 (got n="
            << n << ", m=" << m
            << "); simple_random has no product structure to exploit — use "
               "Monte Carlo at this size";
        reason = out.str();
      } else {
        unit_sets = true;
      }
    }
  } else if (name == "gc_cyclic") {
    if (const auto* gc = cast_or_reason<core::GcCyclicScheme>(
            scheme, "exact gradient coding", &reason)) {
      threshold = n - gc->stragglers_tolerated();
    }
  } else if (name == "sgc") {
    // The *timing* law (stop at the first n-r+1 workers) is a plain
    // threshold, but E[T] alone would mislead the --predict ranking:
    // decode_sum returns a noisy estimate, so per-iteration runtime is
    // not comparable against exact-recovery schemes — convergence-per-
    // second is the fair metric, and that needs the gradient-noise/
    // step-size interplay the oracle does not model. Gate SGC with the
    // statistical tests instead.
    if (cast_or_reason<core::SgcScheme>(scheme, "stochastic gradient coding",
                                        &reason)) {
      reason =
          "sgc decode is stochastic (unbiased but noisy): iteration time "
          "has a threshold law, but ranking it against exact-recovery "
          "schemes on E[T] alone would ignore the decode noise's "
          "convergence cost — compare via the convergence benches/tests "
          "instead";
    }
  } else if (name == "gc_nested") {
    // Timing is level-independent: the master always waits for the
    // n-r+1 quota (the level only picks which arrived components are
    // summed), so the profile is the same threshold as exact GC — with
    // the d(r)-component message size from check_exchangeable.
    if (const auto* gc = cast_or_reason<core::GcNestedScheme>(
            scheme, "nested gradient coding", &reason)) {
      threshold = n - gc->stragglers_tolerated();
    }
  } else {
    reason = "no analytic model registered for scheme '" + std::string(name) +
             "'";
  }
  double units = 1.0;
  if (reason.empty()) {
    if (auto why = check_exchangeable(scheme, &units)) {
      reason = std::move(*why);
    }
  }
  if (!reason.empty()) {
    return {std::nullopt, std::move(reason)};
  }
  if (unit_sets) {
    std::vector<std::uint64_t> masks(n, 0);
    for (std::size_t w = 0; w < n; ++w) {
      for (std::size_t unit : scheme.placement().worker(w)) {
        masks[w] |= std::uint64_t{1} << unit;
      }
    }
    return {CoverageProfile{coverage_union_masks(masks, m), units}, {}};
  }
  if (!groups.empty()) {
    return {CoverageProfile{coverage_partition(n, groups), units}, {}};
  }
  return {CoverageProfile{coverage_threshold(n, threshold), units}, {}};
}

}  // namespace coupon::analytic
