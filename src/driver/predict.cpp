#include "driver/predict.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analytic/coverage.hpp"
#include "core/scheme_registry.hpp"
#include "driver/scenario_registry.hpp"
#include "stats/rng.hpp"
#include "util/names.hpp"

namespace coupon::driver {

namespace {

/// The named scenario's simulator cluster for this config — the one
/// `SimulatedRuntime::run` runs.
simulate::ClusterConfig resolve_cluster(const ExperimentConfig& config) {
  const Scenario scenario = ScenarioRegistry::instance().build(
      config.scenario, config.num_workers);
  if (scenario.live_only) {
    throw std::invalid_argument(
        "scenario '" + scenario.name +
        "' needs a live cluster; the analytic oracle predicts the "
        "simulated runtime only");
  }
  return scenario.cluster;
}

/// Builds one candidate with the timing-run seeding discipline (see the
/// header): same seed => same realized placement as `simulate_run`.
std::unique_ptr<core::Scheme> build_candidate(const ExperimentConfig& config,
                                              const CandidateSpec& spec,
                                              std::string* reason) {
  core::SchemeConfig sconf;
  sconf.num_workers = config.num_workers;
  sconf.num_units = config.num_units;
  sconf.load = spec.load;
  sconf.bcc_seed_first_batches = config.bcc_seed_first_batches.value_or(false);
  try {
    stats::Rng rng(config.seed);
    return core::SchemeRegistry::instance().create(spec.scheme, sconf, rng);
  } catch (const std::exception& error) {
    if (reason != nullptr) {
      *reason = error.what();
    }
    return nullptr;
  }
}

/// The names in `analytic::kModeledSchemes`, in its order.
std::vector<std::string> modeled_scheme_names() {
  std::vector<std::string> names;
  for (const analytic::ModeledScheme& modeled : analytic::kModeledSchemes) {
    names.emplace_back(modeled.name);
  }
  return names;
}

}  // namespace

std::vector<CandidateSpec> predict_candidates(
    const ExperimentConfig& config, const std::vector<std::size_t>& loads) {
  const std::vector<std::string> schemes =
      config.scheme == "auto" || config.scheme == "all"
          ? modeled_scheme_names()
          : std::vector<std::string>{config.scheme};
  std::vector<std::size_t> axis = loads;
  if (axis.empty()) {
    axis.push_back(config.load);
  }
  std::vector<CandidateSpec> candidates;
  candidates.reserve(schemes.size() * axis.size());
  for (const std::string& scheme : schemes) {
    for (std::size_t load : axis) {
      candidates.push_back({scheme, load});
    }
  }
  return candidates;
}

PredictReport predict_report(const ExperimentConfig& config,
                             const std::vector<CandidateSpec>& candidates,
                             bool quantiles, std::size_t quantile_top) {
  const simulate::ClusterConfig cluster = resolve_cluster(config);
  struct Entry {
    std::unique_ptr<core::Scheme> scheme;
    analytic::Prediction prediction;
  };
  std::vector<Entry> entries;
  PredictReport report;
  for (const CandidateSpec& spec : candidates) {
    std::string reason;
    std::unique_ptr<core::Scheme> scheme =
        build_candidate(config, spec, &reason);
    std::optional<analytic::Prediction> prediction;
    if (scheme != nullptr) {
      prediction =
          analytic::predict(*scheme, cluster, {.quantiles = false}, &reason);
    }
    if (!prediction.has_value()) {
      report.unsupported.push_back({spec, std::move(reason)});
      continue;
    }
    const bool duplicate =
        std::ranges::any_of(entries, [&](const Entry& entry) {
          return entry.prediction.scheme == prediction->scheme &&
                 entry.prediction.load == prediction->load;
        });
    if (!duplicate) {
      entries.push_back({std::move(scheme), std::move(*prediction)});
    }
  }
  // Entries are in candidate order, so a stable sort breaks E[T] ties by it.
  std::ranges::stable_sort(entries, {}, [](const Entry& entry) {
    return entry.prediction.expected_time;
  });
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (quantiles && (quantile_top == 0 || i < quantile_top)) {
      // predict is deterministic: the rerun repeats the means bit for bit.
      entries[i].prediction = *analytic::predict(*entries[i].scheme, cluster);
    }
    report.ranked.push_back(std::move(entries[i].prediction));
  }

  // A scheme name with no analytic model gets the registry's
  // did-you-mean treatment against the covered schemes.
  const std::vector<std::string> covered = modeled_scheme_names();
  for (UnsupportedCandidate& entry : report.unsupported) {
    if (analytic::is_modeled_scheme(entry.spec.scheme)) {
      continue;
    }
    if (core::SchemeRegistry::instance().find(entry.spec.scheme) != nullptr) {
      entry.reason += " (analytic models cover: " + join_names(covered) + ")";
    } else {
      entry.reason =
          unknown_name_message("scheme", entry.spec.scheme, covered);
    }
  }
  return report;
}

std::optional<analytic::Prediction> predict_cell(
    const ExperimentConfig& config, std::string* reason) {
  std::unique_ptr<core::Scheme> scheme =
      build_candidate(config, {config.scheme, config.load}, reason);
  if (scheme == nullptr) {
    return std::nullopt;
  }
  return analytic::predict(*scheme, resolve_cluster(config),
                           {.quantiles = false}, reason);
}

std::string render_predict_report(const PredictReport& report) {
  AsciiTable table({"rank", "scheme", "r", "E[T] (s)", "p50", "p95", "p99",
                    "E[K]", "E[L]", "P(fail)"});
  table.set_align(1, Align::kLeft);
  for (std::size_t i = 0; i < report.ranked.size(); ++i) {
    const analytic::Prediction& p = report.ranked[i];
    table.add_row({std::to_string(i + 1), p.scheme, std::to_string(p.load),
                   format_double(p.expected_time, 4),
                   p.has_quantiles ? format_double(p.p50, 4) : "-",
                   p.has_quantiles ? format_double(p.p95, 4) : "-",
                   p.has_quantiles ? format_double(p.p99, 4) : "-",
                   format_double(p.expected_workers, 2),
                   format_double(p.expected_units, 2),
                   format_double(p.failure_probability, 4)});
  }
  std::ostringstream out;
  out << table.render();
  if (!report.unsupported.empty()) {
    out << "not predictable:\n";
    for (const UnsupportedCandidate& entry : report.unsupported) {
      out << "  " << entry.spec.scheme << " r=" << entry.spec.load << ": "
          << entry.reason << "\n";
    }
  }
  return out.str();
}

AsciiTable measured_vs_predicted_table(const ExperimentConfig& base,
                                       const std::vector<RunRecord>& records) {
  AsciiTable table({"scheme", "r", "measured total (s)",
                    "predicted exact (s)", "rel err"});
  table.set_align(0, Align::kLeft);
  for (const RunRecord& record : records) {
    ExperimentConfig cell = base;
    cell.scheme = record.scheme;
    cell.scenario = record.scenario;
    cell.num_workers = record.num_workers;
    cell.num_units = record.num_units;
    cell.load = record.load;
    cell.seed = record.seed;
    const std::optional<analytic::Prediction> prediction = predict_cell(cell);
    std::string predicted = "-";
    std::string err = "-";
    if (prediction.has_value()) {
      const double total = prediction->expected_time *
                           static_cast<double>(record.iterations);
      predicted = format_double(total, 3);
      if (total > 0.0) {
        err = format_percent((record.total_time - total) / total);
      }
    }
    table.add_row({record.scheme_display.empty() ? record.scheme
                                                 : record.scheme_display,
                   std::to_string(record.load), format_double(
                       record.total_time, 3),
                   predicted, err});
  }
  return table;
}

std::string resolve_auto_scheme(const ExperimentConfig& config) {
  ExperimentConfig all = config;
  all.scheme = "all";
  const PredictReport report =
      predict_report(all, predict_candidates(all, {}), /*quantiles=*/false);
  if (report.ranked.empty()) {
    std::ostringstream out;
    out << "--scheme auto: the analytic oracle supports no scheme for "
           "scenario '"
        << config.scenario << "' at n=" << config.num_workers
        << " m=" << config.num_units << " r=" << config.load << ":";
    for (const UnsupportedCandidate& entry : report.unsupported) {
      out << "\n  " << entry.spec.scheme << ": " << entry.reason;
    }
    throw std::invalid_argument(out.str());
  }
  return report.ranked.front().scheme;
}

}  // namespace coupon::driver
