#pragma once

/// \file experiment.hpp
/// The paper's EC2 experiment scenarios (Section III-C) and the
/// per-iteration trace CSV schema. The driver runs the scenarios
/// (driver::config_from_sim_scenario + driver::run_experiment) and
/// renders Table I/II-style rows (driver::summary_table).
///
/// Calibration: the cluster constants below were chosen so that the
/// simulated per-message ingress time and per-unit compute time land in
/// the regime the paper reports for t2.micro instances (communication
/// dominates computation by an order of magnitude; see EXPERIMENTS.md for
/// the measured-vs-paper comparison). The *shape* of the results — the
/// scheme ranking and the proportionality of total time to the recovery
/// threshold — does not depend on the exact constants; see
/// bench/ablation_master_bw for the sensitivity sweep.

#include <cstdint>
#include <string>
#include <vector>

#include "simulate/cluster_sim.hpp"

namespace coupon::simulate {

/// One experiment scenario (a cluster, a workload, a set of schemes).
struct ScenarioConfig {
  std::string name;
  std::size_t num_workers = 0;  ///< n
  std::size_t num_units = 0;    ///< m (data batches / super-examples)
  std::size_t load = 0;         ///< r for the coded schemes (units)
  std::size_t iterations = 100;
  ClusterConfig cluster;
  std::uint64_t seed = 1;
};

/// The shared EC2 cluster calibration behind both scenarios (and the
/// driver's "shifted_exp" straggler scenario).
ClusterConfig ec2_cluster();

/// Scenario one of the paper: n = 50 workers, m = 50 data batches (100
/// points each), r = 10 for CR and BCC, 100 iterations.
ScenarioConfig ec2_scenario_one();

/// Scenario two of the paper: n = 100 workers, m = 100 data batches.
ScenarioConfig ec2_scenario_two();

/// Column names of the per-iteration trace CSV: iteration,total_time,
/// compute_time,comm_time,workers_heard,units_received,recovered. Shared
/// by `write_iteration_csv` and the driver's CSV emitter so the schema
/// cannot drift.
const std::vector<std::string>& iteration_csv_header();

/// Renders iteration `index` as CSV fields matching
/// `iteration_csv_header()`.
std::vector<std::string> iteration_csv_fields(std::size_t index,
                                              const IterationReport& it);

/// Exports a run's per-iteration reports as CSV (header above) — for
/// external plotting of latency traces.
void write_iteration_csv(std::ostream& os, const RunReport& run);

}  // namespace coupon::simulate
