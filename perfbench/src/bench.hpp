#pragma once

/// \file bench.hpp
/// Shared pieces of the repository benchmark: run options, the report a
/// workload returns, sample statistics, output checks, and the
/// workload/traced-run entry points.

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// An output check that failed. Thrown before any number is reported.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline void check(bool ok, const std::string& what) {
  if (!ok) {
    throw CheckFailure(what);
  }
}

/// splitmix64 of (seed, stream): independent, reproducible sub-seeds.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// How one workload is run.
struct RunSpec {
  std::uint64_t seed = 1;          ///< workload seed (inputs)
  std::uint64_t holdout_seed = 2;  ///< second seed, used only by checks
  double seconds = 10.0;           ///< measured wall time of the run
  bool tiny = false;               ///< self-test size
  /// Self-test only: perturb every expected output the checks compare
  /// against, so a passing check proves nothing.
  bool corrupt_expected = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back: its metrics (printed in the final JSON
/// line), counts of GD iterations attempted and unrecovered, and
/// human-readable lines describing inputs and context.
struct Report {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Median plus the highest of p75/p90/p95/p99 with at least ten
/// samples beyond it (p50 when there are too few samples for any).
struct Latency {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 100.0;
  std::size_t count = 0;
};

Latency summarize(std::vector<double> samples);

/// A uniform sample of at most `capacity` values from a stream (reservoir
/// sampling with a fixed seed). The storage is allocated and touched up
/// front, so the benchmark's own memory does not grow with run length and
/// peak_rss_mb does not depend on how many iterations a run completes.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = 1u << 18)
      : values_(capacity, 0.0) {}

  void add(double value);
  std::vector<double> samples() const;
  std::uint64_t seen() const { return seen_; }

 private:
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x2545f4914f6cdd1dULL;
};
double median(std::vector<double> samples);

/// Adds iters_per_s (median of the per-episode rates), iter_p50_us,
/// iter_tail_us, setup_s (median) and peak_rss_mb, and the matching note.
/// With `episode_tails` (the tails of blocks of consecutive iterations,
/// for workloads with many iterations) iter_tail_us is their median, which
/// a few disturbed blocks on a shared machine cannot move; otherwise it is
/// the tail of all samples.
void add_end_to_end(Report& report, const std::vector<double>& rates,
                    const Reservoir& iter_samples_us,
                    const std::vector<double>& setup_seconds,
                    const std::vector<double>& episode_tails = {});

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

/// Workload names in presentation order.
const std::vector<std::string>& workload_names();

/// Runs one workload with tracing off. Throws CheckFailure when an
/// output check fails.
Report run_workload(const std::string& name, const RunSpec& spec);

/// The traced run over every workload: per-layer metrics, tracing
/// overhead, and the traced-vs-untraced output equivalence checks. Spans
/// are written to `spans_path` when it is non-empty.
Report run_traced(const RunSpec& spec, const std::string& spans_path);

// --- fixed workload inputs (shared by the untraced and traced runs) -----

/// sim_mega: bcc and uncoded at n = m = 10^6, r = 40, shifted_exp.
struct MegaInputs {
  std::size_t n = 1'000'000;
  std::size_t load = 40;
  std::vector<std::string> schemes{"bcc", "uncoded"};
  std::string scenario = "shifted_exp";
};
MegaInputs mega_inputs(const RunSpec& spec);

/// live_*: bcc training on no_stragglers, n = 3, m = 6, r = 2, p = 20.
struct LiveInputs {
  std::size_t n = 3;
  std::size_t m = 6;
  std::size_t load = 2;
  std::size_t features = 20;
  std::size_t examples_per_unit = 5;
  double learning_rate = 2.0;
  std::size_t iterations = 2000;  ///< per episode
  std::string scheme = "bcc";
  std::string scenario = "no_stragglers";
};
LiveInputs live_inputs(const RunSpec& spec);

}  // namespace perfbench
