// Whole-pipeline integration tests: the paper's data model + batching +
// BCC + Nesterov over the threaded runtime, and cross-checks between the
// analytic layer (theory), the simulator, and the runtime.

#include <gtest/gtest.h>

#include <cmath>

#include "core/core.hpp"
#include "data/data.hpp"
#include "linalg/vector_ops.hpp"
#include "opt/opt.hpp"
#include "runtime/runtime.hpp"
#include "simulate/simulate.hpp"
#include "stats/rng.hpp"

namespace coupon {
namespace {

TEST(Integration, PaperPipelineTrainsAModel) {
  // Scaled-down Section III-C: p = 60 features, m = 240 examples grouped
  // into 24 units of 10, n = 24 workers, BCC with r = 6 units (B = 4),
  // Nesterov for 60 iterations.
  stats::Rng rng(2024);
  data::SyntheticConfig dconf;
  dconf.num_features = 60;
  const auto problem = data::generate_logreg(240, dconf, rng);
  data::BatchPartition partition(240, 10);
  core::GroupedBatchSource source(problem.dataset, partition);

  core::SchemeConfig config{24, 24, 6, true};
  auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);

  runtime::ThreadCluster cluster(*scheme, source);
  opt::NesterovGradient optimizer(60,
                                  opt::LearningRateSchedule::constant(2.0));
  const double initial_loss =
      opt::logistic_loss(problem.dataset, optimizer.weights());

  runtime::TrainOptions options;
  options.iterations = 60;
  const auto result = cluster.train(optimizer, options);

  EXPECT_EQ(result.failed_iterations, 0u);
  const double final_loss =
      opt::logistic_loss(problem.dataset, result.weights);
  EXPECT_LT(final_loss, initial_loss);
  // The model is learnable: well above chance on the training set.
  EXPECT_GT(opt::accuracy(problem.dataset, result.weights), 0.6);
  // kappa = sigmoid(-x^T w*) anti-correlates labels with w*: the learned
  // direction must oppose w*.
  EXPECT_LT(linalg::dot(result.weights, problem.w_star), 0.0);
}

TEST(Integration, AllSchemesProduceTheSameModel) {
  // Distributed GD is exact for every scheme: after T iterations from the
  // same start, all five schemes agree to round-off.
  stats::Rng rng(7);
  data::SyntheticConfig dconf;
  dconf.num_features = 6;
  const auto problem = data::generate_logreg(12, dconf, rng);
  core::PerExampleSource source(problem.dataset);

  std::vector<std::vector<double>> models;
  for (const char* kind :
       {"uncoded", "bcc", "simple_random", "cr", "fr"}) {
    stats::Rng scheme_rng(99);
    core::SchemeConfig config{12, 12, 3, true};
    auto scheme =
        core::SchemeRegistry::instance().create(kind, config, scheme_rng);
    // Random placements may miss a unit at this small n: redraw, as a
    // deployment would before loading data onto the workers.
    for (int attempt = 0; attempt < 64 &&
                          !scheme->placement().covers_all_examples();
         ++attempt) {
      scheme =
          core::SchemeRegistry::instance().create(kind, config, scheme_rng);
    }
    ASSERT_TRUE(scheme->placement().covers_all_examples());
    runtime::ThreadCluster cluster(*scheme, source);
    opt::NesterovGradient optimizer(6,
                                    opt::LearningRateSchedule::constant(0.5));
    runtime::TrainOptions options;
    options.iterations = 8;
    models.push_back(cluster.train(optimizer, options).weights);
  }
  for (std::size_t k = 1; k < models.size(); ++k) {
    EXPECT_LT(linalg::max_abs_diff(models[k], models[0]), 1e-6)
        << "scheme #" << k << " diverged from uncoded";
  }
}

TEST(Integration, SimulatorKMatchesRuntimeKForDeterministicSchemes) {
  // For uncoded and CR the recovery threshold is deterministic, so the
  // simulator and the threaded runtime must agree exactly.
  stats::Rng rng(13);
  data::SyntheticConfig dconf;
  dconf.num_features = 4;
  const auto problem = data::generate_logreg(10, dconf, rng);
  core::PerExampleSource source(problem.dataset);

  for (auto [kind, expected_k] :
       {std::pair{"uncoded", 10.0}, std::pair{"cr", 8.0}}) {
    stats::Rng srng(5);
    core::SchemeConfig config{10, 10, 3, false};
    auto scheme = core::SchemeRegistry::instance().create(kind, config, srng);

    simulate::ClusterConfig cluster_config;
    const auto sim_report =
        simulate::simulate_run(*scheme, cluster_config,
                               {.iterations = 1, .record_trace = true}, srng)
            .iterations[0];
    EXPECT_DOUBLE_EQ(static_cast<double>(sim_report.workers_heard),
                     expected_k);

    runtime::ThreadCluster cluster(*scheme, source);
    opt::GradientDescent optimizer(4,
                                   opt::LearningRateSchedule::constant(0.1));
    runtime::TrainOptions options;
    options.iterations = 3;
    const auto run = cluster.train(optimizer, options);
    EXPECT_DOUBLE_EQ(run.workers_heard.mean(), expected_k);
  }
}

TEST(Integration, Fig2OrderingAcrossTheLoadRange) {
  // The Fig. 2 picture for m = n = 100, validated on the analytic layer
  // and spot-checked against scheme-level Monte Carlo.
  const std::size_t m = 100;
  for (std::size_t r : {5u, 10u, 20u, 50u}) {
    const double lower = core::theory::k_lower_bound(m, r);
    const double bcc = core::theory::k_bcc(m, r);
    const double cr = core::theory::k_cyclic_repetition(m, r);
    EXPECT_LE(lower, bcc);
    EXPECT_LT(bcc, cr) << "r=" << r;
  }
  // Spot check r = 10 against an empirical BCC run with many workers.
  stats::Rng rng(17);
  stats::OnlineStats k_mc;
  for (int trial = 0; trial < 300; ++trial) {
    core::SchemeConfig config{1000, m, 10, false};
    auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
    auto collector = scheme->make_collector();
    for (std::size_t i = 0; i < 1000 && !collector->ready(); ++i) {
      collector->offer(i, scheme->message_meta(i), {});
    }
    ASSERT_TRUE(collector->ready());
    k_mc.add(static_cast<double>(collector->workers_heard()));
  }
  EXPECT_NEAR(k_mc.mean(), core::theory::k_bcc(m, 10), 1.5);
}

TEST(Integration, CommunicationLoadOrderingMatchesEq6VsEq14) {
  // L_simple-random blows up by ~r versus L_BCC at equal K-ish coverage.
  stats::Rng rng(19);
  const std::size_t n = 500, m = 40, r = 8;
  core::SchemeConfig config{n, m, r, false};

  auto bcc = core::SchemeRegistry::instance().create("bcc", config, rng);
  auto srs = core::SchemeRegistry::instance().create("simple_random", config, rng);

  stats::OnlineStats l_bcc, l_srs;
  for (int trial = 0; trial < 100; ++trial) {
    auto cb = bcc->make_collector();
    for (std::size_t i = 0; i < n && !cb->ready(); ++i) {
      cb->offer(i, bcc->message_meta(i), {});
    }
    l_bcc.add(cb->units_received());
    auto cs = srs->make_collector();
    for (std::size_t i = 0; i < n && !cs->ready(); ++i) {
      cs->offer(i, srs->message_meta(i), {});
    }
    l_srs.add(cs->units_received());
  }
  // Simple randomized ships r units per heard worker; BCC ships one.
  EXPECT_GT(l_srs.mean(), 2.0 * l_bcc.mean());
}

TEST(Integration, EndToEndSeedReproducibility) {
  // Identical seeds must reproduce the entire pipeline bit-for-bit.
  auto run_once = [] {
    stats::Rng rng(31415);
    data::SyntheticConfig dconf;
    dconf.num_features = 8;
    const auto problem = data::generate_logreg(16, dconf, rng);
    core::PerExampleSource source(problem.dataset);
    core::SchemeConfig config{16, 16, 4, true};
    auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
    runtime::ThreadCluster cluster(*scheme, source);
    opt::NesterovGradient optimizer(8,
                                    opt::LearningRateSchedule::constant(0.5));
    runtime::TrainOptions options;
    options.iterations = 5;
    return cluster.train(optimizer, options).weights;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace coupon
