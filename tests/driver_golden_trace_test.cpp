// Golden-trace regression: a canonical 2-scheme x 2-scenario sweep must
// reproduce tests/golden/sweep_2x2.jsonl byte for byte, and the analytic
// oracle's ranked report must reproduce tests/golden/predict_all_n20.txt.
//
// The golden file was captured from the pre-LatencyModel-refactor binary
// (`coupon_run --sweep --schemes bcc,cr --scenarios shifted_exp,lossy
// --workers 20 --units 20 --load 4 --iterations 40 --seed 9 --threads 1`),
// so this test pins two claims at once: the ShiftedExpModel extraction
// left the simulated traces bit-identical, and future changes keep sweep
// output deterministic. Numbers are rendered with %.17g (exact double
// round-trip); our own xoshiro-based samplers make the draws
// platform-independent, and CI's glibc libm pins exp/log rounding.
//
// If this test fails after an *intentional* change to the simulator's
// draw sequence, regenerate the file with the coupon_run invocation
// above and say so loudly in the commit message.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "driver/driver.hpp"
#include "driver/predict.hpp"
#include "driver/sweep.hpp"

namespace driver = coupon::driver;

namespace {

driver::SweepPlan golden_plan() {
  driver::SweepPlan plan;
  plan.base.num_workers = 20;
  plan.base.num_units = 20;
  plan.base.load = 4;
  plan.base.iterations = 40;
  plan.base.seed = 9;
  plan.schemes = {"bcc", "cr"};
  plan.scenarios = {"shifted_exp", "lossy"};
  return plan;
}

/// The convergence golden: a small training sweep (real gradients over
/// simulated time) captured from the engine that introduced the feature
/// (`coupon_run --sweep --train --schemes bcc,uncoded --scenarios
/// shifted_exp,no_stragglers --workers_axis 8 --loads 2 --iterations_axis
/// 12 --seeds 5 --features 6 --examples_per_unit 4 --target_loss 0.6
/// --loss_history --threads 1 --jsonl tests/golden/convergence_2x2.jsonl`).
/// Pins the whole train path: synthetic data draw, placement, kernel
/// arrival order, decode arithmetic, optimizer steps, loss rendering.
driver::SweepPlan convergence_plan() {
  driver::SweepPlan plan;
  plan.base.train = true;
  plan.base.record_trace = false;  // sweep mode runs trace-free
  plan.base.record_loss_history = true;
  plan.base.target_loss = 0.6;
  plan.base.num_workers = 8;
  plan.base.num_units = 8;
  plan.base.load = 2;
  plan.base.iterations = 12;
  plan.base.seed = 5;
  plan.base.features = 6;
  plan.base.examples_per_unit = 4;
  plan.schemes = {"bcc", "uncoded"};
  plan.scenarios = {"shifted_exp", "no_stragglers"};
  return plan;
}

/// The gradient-coding golden: the same canonical sweep shape as
/// golden_plan over the exact-recovery GC family (captured from the
/// engine that introduced the schemes: `coupon_run --sweep --schemes
/// gc_cyclic,gc_nested --scenarios shifted_exp,lossy --workers 20
/// --units 20 --loads 4 --iterations 40 --seed 9 --threads 1 --jsonl
/// tests/golden/gc_sweep.jsonl`). Pins the cyclic-window placement, the
/// deterministic n - r + 1 readiness rule (recovery_threshold is exactly
/// 17 in every row), and the per-message unit accounting (r = 4 raw
/// units for gc_cyclic, d(4) = 3 ladder components for gc_nested).
driver::SweepPlan gc_plan() {
  driver::SweepPlan plan;
  plan.base.num_workers = 20;
  plan.base.num_units = 20;
  plan.base.load = 4;
  plan.base.iterations = 40;
  plan.base.seed = 9;
  plan.schemes = {"gc_cyclic", "gc_nested"};
  plan.scenarios = {"shifted_exp", "lossy"};
  return plan;
}

std::string run_plan_to_jsonl(const driver::SweepPlan& plan,
                              std::size_t threads) {
  std::ostringstream os;
  driver::JsonlSink sink(os);
  driver::SweepOptions options;
  options.threads = threads;
  options.sink = &sink;
  driver::run_sweep(plan, options);
  return os.str();
}

std::string read_golden(const std::string& file) {
  const std::string path = std::string(COUPON_GOLDEN_DIR) + "/" + file;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden file " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

TEST(GoldenTrace, SerialSweepIsByteIdenticalToTheCheckedInGolden) {
  const std::string golden = read_golden("sweep_2x2.jsonl");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(run_plan_to_jsonl(golden_plan(), /*threads=*/1), golden)
      << "sweep output drifted from tests/golden/sweep_2x2.jsonl — the "
         "simulator's RNG draw sequence changed";
}

TEST(GoldenTrace, ParallelSweepMatchesTheGoldenToo) {
  // The parallel path streams in cell order and seeds per cell, so it
  // must hit the same bytes.
  EXPECT_EQ(run_plan_to_jsonl(golden_plan(), /*threads=*/4),
            read_golden("sweep_2x2.jsonl"));
}

TEST(GoldenGcSweep, SerialGcSweepIsByteIdenticalToTheCheckedInGolden) {
  const std::string golden = read_golden("gc_sweep.jsonl");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(run_plan_to_jsonl(gc_plan(), /*threads=*/1), golden)
      << "sweep output drifted from tests/golden/gc_sweep.jsonl — the "
         "gradient-coding placements, readiness rule, or the simulator's "
         "RNG draw sequence changed";
}

TEST(GoldenGcSweep, ParallelGcSweepMatchesTheGoldenToo) {
  EXPECT_EQ(run_plan_to_jsonl(gc_plan(), /*threads=*/4),
            read_golden("gc_sweep.jsonl"));
}

TEST(GoldenConvergence, SerialTrainingSweepIsByteIdentical) {
  const std::string golden = read_golden("convergence_2x2.jsonl");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(run_plan_to_jsonl(convergence_plan(), /*threads=*/1), golden)
      << "training-sweep output drifted from "
         "tests/golden/convergence_2x2.jsonl — the data draw, placement, "
         "arrival order, decode arithmetic, or optimizer changed";
}

TEST(GoldenConvergence, ParallelTrainingSweepMatchesTheGoldenToo) {
  EXPECT_EQ(run_plan_to_jsonl(convergence_plan(), /*threads=*/4),
            read_golden("convergence_2x2.jsonl"));
}

/// The oracle golden, captured with `coupon_run --predict --scheme all
/// --scenario shifted_exp --workers 20 --units 20 --loads 2,4,10` (seed 1).
/// Pins every scheme's coverage reduction, the ranking (first row per
/// (scheme, load), E[T] order, candidate order on ties), the quantiles of
/// the top three rows, and the unsupported footer's reasons.
TEST(GoldenPredict, RankedReportIsByteIdenticalToTheCheckedInGolden) {
  const std::string golden = read_golden("predict_all_n20.txt");
  ASSERT_FALSE(golden.empty());
  driver::ExperimentConfig config;
  config.scheme = "all";
  config.scenario = "shifted_exp";
  config.num_workers = 20;
  config.num_units = 20;
  config.seed = 1;
  const driver::PredictReport report = driver::predict_report(
      config, driver::predict_candidates(config, {2, 4, 10}));
  EXPECT_EQ(driver::render_predict_report(report), golden)
      << "--predict output drifted from tests/golden/predict_all_n20.txt";
}
