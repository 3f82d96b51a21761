#pragma once

/// \file predict.hpp
/// Driver bridge to the analytic oracle (src/analytic/, DESIGN.md §10):
/// resolves an `ExperimentConfig` into the oracle's inputs and renders
/// `coupon_run --predict` output.
///
/// The crucial detail is *seeding fidelity*: the oracle conditions on a
/// realized placement, so candidates are constructed with exactly the
/// RNG discipline `SimulatedRuntime` uses for timing-only runs
/// (`stats::Rng rng(config.seed)` then `SchemeRegistry::create`). A
/// prediction therefore refers to the same drawn placement that
/// `coupon_run` with the same seed would simulate — measured-vs-exact
/// comparisons are apples to apples, including BCC's batch-choice
/// randomness. This layer owns all RNG use; src/analytic/ stays
/// deterministic.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "analytic/predictor.hpp"
#include "driver/experiment_config.hpp"
#include "driver/record.hpp"
#include "util/table.hpp"

namespace coupon::driver {

/// One auto-tuner candidate.
struct CandidateSpec {
  std::string scheme;  ///< registry name
  std::size_t load = 0;
};

/// A candidate the oracle could not evaluate, and why.
struct UnsupportedCandidate {
  CandidateSpec spec;
  std::string reason;
};

/// Oracle output for one --predict invocation.
struct PredictReport {
  /// Supported candidates, best (smallest E[T]) first.
  std::vector<analytic::Prediction> ranked;
  /// Candidates the oracle declined, with reasons (and, where a typo is
  /// plausible, a did-you-mean suggestion among analytically-covered
  /// schemes).
  std::vector<UnsupportedCandidate> unsupported;
};

/// The candidate list for `config`: `loads` when non-empty (a --loads
/// axis sweep), else the config's single load; crossed with either the
/// config's scheme or — when it is "auto" or "all" — every scheme in
/// `analytic::kModeledSchemes`.
std::vector<CandidateSpec> predict_candidates(
    const ExperimentConfig& config, const std::vector<std::size_t>& loads);

/// Ranks `candidates` on the config's scenario cluster by predicted E[T]
/// (ties broken by candidate order). Candidates that collapse to the
/// same realized (scheme, load) keep the first occurrence only (uncoded's
/// load is m/n whatever r was asked for). Quantiles are computed for the
/// best `quantile_top` rows (0 = all) when `quantiles` is set, since tail
/// bisection dominates the cost at paper-scale n. Throws
/// std::invalid_argument on an unknown scenario or a live-only one.
PredictReport predict_report(const ExperimentConfig& config,
                             const std::vector<CandidateSpec>& candidates,
                             bool quantiles = true,
                             std::size_t quantile_top = 3);

/// Exact prediction for the single cell `config` describes, without
/// quantiles — the benches' measured-vs-exact column. Returns nullopt
/// (with `reason`) when the cell has no exact reduction.
std::optional<analytic::Prediction> predict_cell(
    const ExperimentConfig& config, std::string* reason = nullptr);

/// Renders the ranked table (and an "unsupported" footer when needed).
std::string render_predict_report(const PredictReport& report);

/// Measured-vs-exact companion table for the Table I/II and Fig. 4
/// benches: one row per record with the oracle's zero-simulation
/// prediction (E[T] x iterations) beside the measured total. Cells the
/// oracle declines render "-". Each record re-resolves against `base`
/// with its own (scheme, n, m, r, seed), so BCC rows condition on the
/// same realized placement the sweep simulated.
AsciiTable measured_vs_predicted_table(const ExperimentConfig& base,
                                       const std::vector<RunRecord>& records);

/// Resolves `--scheme auto`: the analytically best scheme name for the
/// config's (scenario, n, m, r, seed) cell. Throws std::invalid_argument
/// listing every candidate's reason when the oracle supports none.
std::string resolve_auto_scheme(const ExperimentConfig& config);

}  // namespace coupon::driver
