#pragma once

/// \file workloads.hpp
/// Workload construction shared by the untraced runs (workloads.cpp) and
/// the traced run (traced_run.cpp).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/scheme.hpp"
#include "driver/experiment_config.hpp"
#include "driver/record.hpp"
#include "driver/sweep.hpp"
#include "simulate/cluster_sim.hpp"

namespace perfbench {

/// SchemeRegistry options of a cell. The runtimes seed bcc's first batches
/// for training runs and not for timing-only runs.
coupon::core::SchemeConfig scheme_config(std::size_t n, std::size_t m,
                                         std::size_t load,
                                         bool seed_first_batches);

// --- sim_mega -------------------------------------------------------------

/// One timing-only cell stepped by the benchmark: scheme, latency model,
/// kernel and its RNG stream, built exactly as `simulate_run` builds them.
struct MegaCell {
  std::unique_ptr<coupon::core::Scheme> scheme;
  std::unique_ptr<coupon::simulate::LatencyModel> model;
  std::unique_ptr<coupon::simulate::IterationKernel> kernel;
  coupon::stats::Rng rng{0};
};

MegaCell build_mega_cell(const std::string& scheme, const MegaInputs& inputs,
                         const coupon::simulate::ClusterConfig& cluster,
                         std::uint64_t seed);

/// Seed of cell `cell` in episode `episode` of a sim_mega run.
std::uint64_t mega_cell_seed(std::uint64_t workload_seed, std::size_t episode,
                             std::size_t cell);

// --- paper_grid -----------------------------------------------------------

struct GridInputs {
  std::vector<std::string> timing_schemes;
  std::vector<std::string> scenarios{"shifted_exp", "heavy_tail", "markov"};
  std::vector<std::string> train_schemes{"uncoded", "bcc", "gc_cyclic", "sgc"};
  std::vector<std::size_t> workers{50, 100};
  std::size_t load = 10;
  std::vector<std::uint64_t> seeds;
  std::size_t timing_iterations = 0;
  std::size_t train_iterations = 0;
  std::size_t features = 20;
  std::size_t examples_per_unit = 20;
  std::size_t threads = 0;  ///< sweep pool size (nproc)
};

/// `traced` selects the traced run's shorter cells.
GridInputs grid_inputs(const RunSpec& spec, bool traced);
coupon::driver::SweepPlan timing_plan(const GridInputs& inputs);
coupon::driver::SweepPlan train_plan(const GridInputs& inputs);

/// True when two records of one cell carry bit-identical outputs.
bool same_outputs(const coupon::driver::RunRecord& a,
                  const coupon::driver::RunRecord& b);

// --- live_* ---------------------------------------------------------------

enum class LiveRuntime { kThreaded, kProcess };

/// One training run assembled from the runtime's public pieces exactly as
/// `driver::ThreadedRuntime::run` / `ProcessRuntime::run` assemble it,
/// with a stamping optimizer decorator so iteration times are visible.
struct LiveEpisode {
  double setup_s = 0.0;         ///< workload start -> first broadcast
  double iter_s = 0.0;          ///< first broadcast -> last update
  double cluster_build_ms = 0.0;  ///< ThreadCluster/ProcessCluster ctor
  double train_to_first_ms = 0.0;  ///< train() call -> first broadcast
  std::size_t iterations = 0;
  std::size_t failed = 0;
  double final_loss = 0.0;
  std::vector<double> iter_us;  ///< per-iteration samples
};

LiveEpisode run_live_episode(LiveRuntime runtime, const LiveInputs& inputs,
                             std::uint64_t seed, bool traced);

/// The same cell as a driver config (for the Runtime::run references).
coupon::driver::ExperimentConfig live_config(const LiveInputs& inputs,
                                             std::uint64_t seed,
                                             const std::string& runtime);

}  // namespace perfbench
