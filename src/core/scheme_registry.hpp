#pragma once

/// \file scheme_registry.hpp
/// The fixed table of gradient-coding schemes (DESIGN.md §3).
///
/// Each built-in scheme is listed under a canonical CLI name plus
/// optional aliases, together with a factory and capability flags. The
/// driver, benches, and tools select schemes by name through this table;
/// instances report their canonical name via `Scheme::registry_name()`.
/// The table is built once, on first access, and is read-only after
/// that, so lookups may be issued concurrently from sweep worker threads.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheme.hpp"
#include "stats/rng.hpp"

namespace coupon::core {

/// Static properties of a scheme that callers need before instantiating
/// one (sweep validation, `coupon_run --list`, runtime failure handling).
struct SchemeCapabilities {
  /// Collectors can decode a partial gradient before ready() — the
  /// runtime's kApplyPartial fallback works (BCC, FR, uncoded, SRS).
  bool supports_partial_decode = false;
  /// Placement requires m == n (CR, FR operate on one unit per worker;
  /// use super-examples to satisfy this).
  bool requires_units_equal_workers = false;
  /// Placement requires r to divide n (FR's disjoint blocks, nested GC's
  /// residue-class ladder).
  bool requires_load_divides_workers = false;
  /// decode_sum returns a stochastic *estimate* of the gradient sum (SGC),
  /// unbiased but noisy — never bitwise-reproducible against a serial
  /// reference. Downstream layers gate such schemes statistically
  /// (unbiasedness/variance/convergence) and the JSONL sink stamps
  /// `approximate_recovery` so analysis code can tell the rows apart.
  bool approximate_recovery = false;
};

/// One registry entry: identity, documentation, capabilities, factory.
struct SchemeEntry {
  std::string name;                  ///< canonical CLI spelling, e.g. "bcc"
  std::vector<std::string> aliases;  ///< extra spellings, e.g. long names
  std::string description;           ///< one-line --list text
  SchemeCapabilities caps;
  /// Builds a configured instance, drawing randomness from `rng`. The
  /// factory asserts its own structural requirements (e.g. CR's m == n).
  std::function<std::unique_ptr<Scheme>(const SchemeConfig&, stats::Rng&)>
      factory;
};

/// Process-wide name -> factory table of the built-in schemes, in
/// presentation order (uncoded, fr, cr, bcc, simple_random, gc_cyclic,
/// sgc, gc_nested).
class SchemeRegistry {
 public:
  static const SchemeRegistry& instance();

  /// Looks up a canonical name or alias; nullptr when unknown. The
  /// returned pointer stays valid for the process lifetime.
  const SchemeEntry* find(std::string_view name_or_alias) const;

  /// Builds a configured scheme by name. Throws std::invalid_argument
  /// with a diagnostic listing the valid choices on an unknown name, and
  /// asserts n > 0 / m > 0 before invoking the factory.
  std::unique_ptr<Scheme> create(std::string_view name_or_alias,
                                 const SchemeConfig& config,
                                 stats::Rng& rng) const;

  /// Canonical names in presentation order.
  std::vector<std::string> names() const;

  /// "uncoded|fr|cr|bcc|simple_random|..." for --help strings.
  std::string choices() const;

  /// "unknown scheme 'x' (choices: ...)" — the shared diagnostic.
  std::string unknown_message(std::string_view name) const;

 private:
  SchemeRegistry();  // lists the built-ins

  std::vector<SchemeEntry> entries_;
};

}  // namespace coupon::core
