#pragma once

/// \file experiment.hpp
/// The EC2 cluster calibration behind the paper's experiments (Section
/// III-C). The paper's two
/// scenarios are driver presets (driver::paper_scenario_one/two) on the
/// `shifted_exp` scenario, whose cluster is `ec2_cluster()`; the driver
/// runs them and renders Table I/II-style rows (driver::summary_table).
///
/// Calibration: the cluster constants below were chosen so that the
/// simulated per-message ingress time and per-unit compute time land in
/// the regime the paper reports for t2.micro instances: communication
/// dominates computation by an order of magnitude (paper Table I,
/// uncoded: 28.556 s communication vs 0.230 s computation;
/// bench/table1_scenario1 prints the measured rows next to the paper's).
/// The *shape* of the results — the scheme ranking and the
/// proportionality of total time to the recovery threshold — does not
/// depend on the exact constants; see bench/ablation_master_bw for the
/// sensitivity sweep.

#include "simulate/cluster_sim.hpp"

namespace coupon::simulate {

/// The EC2 cluster calibration behind the paper's two scenarios (the
/// driver's "shifted_exp" straggler scenario).
ClusterConfig ec2_cluster();

}  // namespace coupon::simulate
