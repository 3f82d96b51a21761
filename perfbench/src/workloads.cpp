/// \file workloads.cpp
/// The four benchmark workloads, run with tracing off, and their output
/// checks. Every number a workload reports is measured only after its
/// checks pass; `run_workload` throws CheckFailure otherwise.

#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "analytic/predictor.hpp"
#include "core/gradient_source.hpp"
#include "core/scheme_registry.hpp"
#include "data/batching.hpp"
#include "data/synthetic.hpp"
#include "driver/runtime.hpp"
#include "driver/scenario_registry.hpp"
#include "engine/simulated_provider.hpp"
#include "opt/logistic.hpp"
#include "opt/optimizer.hpp"
#include "runtime/process_cluster.hpp"
#include "runtime/thread_cluster.hpp"
#include "stats/summary.hpp"
#include "trace.hpp"

namespace perfbench {

namespace core = coupon::core;
namespace driver = coupon::driver;
namespace simulate = coupon::simulate;
namespace stats = coupon::stats;

namespace {

std::string format(const char* fmt, double a = 0, double b = 0, double c = 0,
                   double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c, d);
  return buf;
}

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Mean and standard deviation of per-iteration samples.
struct Moments {
  stats::OnlineStats time;
  stats::OnlineStats workers;
};

/// The closed-form check on a timing-only cell: the mean simulated
/// iteration time and the mean recovery threshold K must lie within
/// 5 sigma / sqrt(N) of the expected values given (nullopt = no closed
/// form, or the rule does not hold for the cell's law).
void check_means(std::optional<double> expected_time,
                 std::optional<double> expected_workers, const Moments& m,
                 const std::string& cell, bool corrupt) {
  const double n = static_cast<double>(m.time.count());
  if (expected_time) {
    const double expected = *expected_time * (corrupt ? 1.5 : 1.0);
    const double tol = 5.0 * m.time.stddev() / std::sqrt(n) + 1e-12 * expected;
    check(std::abs(m.time.mean() - expected) <= tol,
          cell + ": mean iteration time " + std::to_string(m.time.mean()) +
              " s vs closed form " + std::to_string(expected) + " s");
  }
  if (expected_workers) {
    const double expected = *expected_workers * (corrupt ? 1.1 : 1.0);
    const double tol = 5.0 * m.workers.stddev() / std::sqrt(n) + 1e-9 * expected;
    check(std::abs(m.workers.mean() - expected) <= tol,
          cell + ": mean K " + std::to_string(m.workers.mean()) +
              " vs closed form " + std::to_string(expected));
  }
}

// --- sim_mega -------------------------------------------------------------

Report run_sim_mega(const RunSpec& spec) {
  const MegaInputs in = mega_inputs(spec);
  const simulate::ClusterConfig cluster =
      driver::ScenarioRegistry::instance().build(in.scenario, in.n).cluster;
  const std::size_t cells = in.schemes.size();
  const std::size_t steps_per_episode = spec.tiny ? 3 : 10;
  const std::size_t min_episodes = 3;

  auto build_episode = [&](std::size_t episode) {
    std::vector<MegaCell> built;
    for (std::size_t c = 0; c < cells; ++c) {
      built.push_back(build_mega_cell(in.schemes[c], in, cluster,
                                      mega_cell_seed(spec.seed, episode, c)));
    }
    return built;
  };

  // Untimed warm-up episode; its schemes also give the closed-form E[K]
  // (Eq. 2 for bcc, n for uncoded). analytic::predict's E[T] is not
  // tractable at this n, so iteration time is not checked here.
  std::vector<std::optional<double>> expected_k;
  {
    std::vector<MegaCell> warm = build_episode(1'000'000);
    for (MegaCell& cell : warm) {
      cell.kernel->run(*cell.model, 0, cell.rng);
      expected_k.push_back(cell.scheme->expected_recovery_threshold());
    }
  }

  std::vector<Moments> moments(cells);
  std::vector<double> setup_s;
  Reservoir step_us;
  std::vector<double> rates;
  Report report;
  const auto start = Clock::now();
  for (std::size_t episode = 0;
       episode < min_episodes || seconds_since(start) < spec.seconds;
       ++episode) {
    const auto t0 = Clock::now();
    std::vector<MegaCell> ep = build_episode(episode);
    setup_s.push_back(seconds_since(t0));
    double episode_seconds = 0.0;
    for (std::size_t s = 0; s < steps_per_episode; ++s) {
      const auto t1 = Clock::now();
      for (std::size_t c = 0; c < cells; ++c) {
        const simulate::IterationReport it =
            ep[c].kernel->run(*ep[c].model, s, ep[c].rng);
        moments[c].time.add(it.total_time);
        moments[c].workers.add(static_cast<double>(it.workers_heard));
        ++report.attempted;
        if (!it.recovered) {
          ++report.failed;
        }
      }
      const double dt = seconds_since(t1);
      episode_seconds += dt;
      // One sample per step of all cells, per cell iteration.
      step_us.add(dt * 1e6 / static_cast<double>(cells));
    }
    rates.push_back(static_cast<double>(steps_per_episode * cells) /
                    episode_seconds);
  }

  add_end_to_end(report, rates, step_us, setup_s);

  for (std::size_t c = 0; c < cells; ++c) {
    const std::string name = "sim_mega/" + in.schemes[c];
    check(expected_k[c].has_value(), name + ": no closed-form E[K]");
    check_means(std::nullopt, expected_k[c], moments[c], name,
                spec.corrupt_expected);
    report.note(name + format(": mean K %.1f (n = %.0f), mean T %.4f s over %.0f iterations",
                              moments[c].workers.mean(), static_cast<double>(in.n),
                              moments[c].time.mean(),
                              static_cast<double>(moments[c].time.count())));
  }
  report.note(format("inputs: n = m = %.0f, r = %.0f, shifted_exp, cells bcc + uncoded, %.0f steps per episode",
                     static_cast<double>(in.n), static_cast<double>(in.load),
                     static_cast<double>(steps_per_episode)));
  return report;
}

// --- paper_grid -----------------------------------------------------------

/// Builds every cell's inputs the way the simulated runtime does before
/// its first iteration: scenario, RNG, training data, scheme, and the
/// kernel or simulated provider.
void setup_grid_cells(const std::vector<driver::SweepCell>& cells) {
  for (const driver::SweepCell& sweep_cell : cells) {
    const driver::ExperimentConfig& config = sweep_cell.config;
    const driver::Scenario scenario = driver::ScenarioRegistry::instance().build(
        config.scenario, config.num_workers);
    stats::Rng rng(config.seed);
    const core::SchemeConfig sconf = scheme_config(
        config.num_workers, config.num_units, config.load, config.train);
    if (!config.train) {
      auto scheme = core::SchemeRegistry::instance().create(config.scheme,
                                                            sconf, rng);
      const auto model =
          simulate::make_latency_model(scenario.cluster, config.num_workers);
      simulate::IterationKernel kernel(*scheme, scenario.cluster);
      continue;
    }
    coupon::data::SyntheticConfig dconf;
    dconf.num_features = config.features;
    const std::size_t examples = config.num_units * config.examples_per_unit;
    const auto problem = coupon::data::generate_logreg(examples, dconf, rng);
    const coupon::data::BatchPartition partition(examples,
                                                 config.examples_per_unit);
    const core::GroupedBatchSource source(problem.dataset, partition);
    auto scheme =
        core::SchemeRegistry::instance().create(config.scheme, sconf, rng);
    coupon::engine::SimulatedProvider provider(*scheme, source,
                                               scenario.cluster, rng);
  }
}

std::size_t plan_iterations(const std::vector<driver::SweepCell>& cells) {
  std::size_t total = 0;
  for (const auto& cell : cells) {
    total += cell.config.iterations;
  }
  return total;
}

/// Timing cells: the analytic::predict check per cell on a traced re-run through
/// SimulatedRuntime (whose summary must equal the sweep's bit for bit).
/// Training cells: no failed iteration (first batches are seeded), a
/// finite final loss, and the exact-recovery schemes ending on the
/// uncoded cell's loss.
void check_grid(const std::vector<driver::SweepCell>& timing_cells,
                const std::vector<driver::RunRecord>& timing,
                const std::vector<driver::SweepCell>& train_cells,
                const std::vector<driver::RunRecord>& train, bool corrupt,
                Report& report) {
  std::size_t oracle_checked = 0;
  const driver::SimulatedRuntime sim;
  for (std::size_t i = 0; i < timing_cells.size(); ++i) {
    driver::ExperimentConfig config = timing_cells[i].config;
    config.record_trace = true;
    const driver::RunRecord traced = sim.run(config);
    const std::string name = "paper_grid/" + config.scheme + "/" +
                             config.scenario + "/n" +
                             std::to_string(config.num_workers) + "/seed" +
                             std::to_string(config.seed);
    check(same_outputs(traced, timing[i]),
          name + ": sweep record differs from the serial SimulatedRuntime run");
    Moments m;
    for (const auto& it : traced.trace) {
      m.time.add(it.total_time);
      m.workers.add(static_cast<double>(it.workers_heard));
    }
    const driver::Scenario scenario = driver::ScenarioRegistry::instance().build(
        config.scenario, config.num_workers);
    stats::Rng rng(config.seed);
    const auto scheme = core::SchemeRegistry::instance().create(
        config.scheme,
        scheme_config(config.num_workers, config.num_units, config.load, false),
        rng);
    // The 5 sigma / sqrt(N) rule needs independent iterations (markov's
    // are correlated) and a finite variance (heavy_tail is Pareto(1.5)),
    // so only the shifted_exp cells are held to it.
    if (config.scenario != "shifted_exp") {
      continue;
    }
    const auto prediction = coupon::analytic::predict(
        *scheme, scenario.cluster, {.quantiles = false});
    if (prediction) {
      check_means(prediction->expected_time, prediction->expected_workers, m,
                  name, corrupt);
      ++oracle_checked;
    }
  }
  check(oracle_checked > 0, "paper_grid: no timing cell had a closed form");

  for (std::size_t i = 0; i < train_cells.size(); ++i) {
    const driver::ExperimentConfig& config = train_cells[i].config;
    const driver::RunRecord& record = train[i];
    const std::string name = "paper_grid/train/" + config.scheme + "/n" +
                             std::to_string(config.num_workers) + "/seed" +
                             std::to_string(config.seed);
    check(record.failures == 0, name + ": failed iterations with seeded first batches");
    check(record.final_loss && std::isfinite(*record.final_loss),
          name + ": no finite final loss");
    if (config.scheme == "uncoded" || config.scheme == "sgc") {
      continue;
    }
    // Exact-recovery schemes decode the full gradient every iteration, so
    // their trajectory is uncoded's up to summation order.
    for (std::size_t j = 0; j < train_cells.size(); ++j) {
      const driver::ExperimentConfig& other = train_cells[j].config;
      if (other.scheme != "uncoded" || other.seed != config.seed ||
          other.num_workers != config.num_workers) {
        continue;
      }
      double expected = *train[j].final_loss;
      if (corrupt) {
        expected *= 1.001;
      }
      check(std::abs(*record.final_loss - expected) <= 1e-6 * std::abs(expected),
            name + ": final loss " + std::to_string(*record.final_loss) +
                " vs uncoded " + std::to_string(expected));
    }
  }
  report.note(format("checks: %.0f shifted_exp timing cells vs analytic::predict E[T] and E[K], %.0f training cells",
                     static_cast<double>(oracle_checked),
                     static_cast<double>(train_cells.size())));
}

Report run_paper_grid(const RunSpec& spec) {
  const GridInputs in = grid_inputs(spec, /*traced=*/false);
  const driver::SweepPlan tplan = timing_plan(in);
  const driver::SweepPlan cplan = train_plan(in);
  const auto timing_cells = driver::expand_plan(tplan);
  const auto train_cells = driver::expand_plan(cplan);
  driver::SweepOptions options;
  options.threads = in.threads;
  const std::size_t pass_iterations =
      plan_iterations(timing_cells) + plan_iterations(train_cells);

  // Untimed warm-up pass; its records are the reference every timed pass
  // must reproduce.
  const auto timing_ref = driver::run_sweep(tplan, options);
  const auto train_ref = driver::run_sweep(cplan, options);

  std::vector<double> setup_s;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    setup_grid_cells(timing_cells);
    setup_grid_cells(train_cells);
    setup_s.push_back(seconds_since(t0));
  }

  Report report;
  Reservoir pass_us;
  std::vector<double> rates;
  const std::size_t min_passes = spec.tiny ? 2 : 5;
  const auto start = Clock::now();
  while (pass_us.seen() < min_passes || seconds_since(start) < spec.seconds) {
    const auto t0 = Clock::now();
    const auto timing = driver::run_sweep(tplan, options);
    const auto train = driver::run_sweep(cplan, options);
    const double dt = seconds_since(t0);
    rates.push_back(static_cast<double>(pass_iterations) / dt);
    pass_us.add(dt * 1e6 / static_cast<double>(pass_iterations));
    for (std::size_t i = 0; i < timing.size(); ++i) {
      check(same_outputs(timing[i], timing_ref[i]),
            "paper_grid: a timed pass differs from the warm-up pass");
      report.failed += timing[i].failures;
    }
    for (std::size_t i = 0; i < train.size(); ++i) {
      check(same_outputs(train[i], train_ref[i]),
            "paper_grid: a timed training pass differs from the warm-up pass");
      report.failed += train[i].failures;
    }
    report.attempted += pass_iterations;
  }

  add_end_to_end(report, rates, pass_us, setup_s);
  check_grid(timing_cells, timing_ref, train_cells, train_ref,
             spec.corrupt_expected, report);
  report.note(format("inputs: %.0f timing cells x %.0f iterations, %.0f training cells x %.0f iterations per pass",
                     static_cast<double>(timing_cells.size()),
                     static_cast<double>(in.timing_iterations),
                     static_cast<double>(train_cells.size()),
                     static_cast<double>(in.train_iterations)));
  report.note(format("sweep threads %.0f; iteration samples are whole passes (wall / iterations)",
                     static_cast<double>(in.threads)));
  return report;
}

// --- live_* ---------------------------------------------------------------

/// sim == threaded == process on one config: the final loss must agree
/// bit for bit (bcc decodes are arrival-order independent).
double check_live_runtimes(const LiveInputs& in, std::uint64_t seed,
                           std::size_t iterations) {
  double loss[3] = {0, 0, 0};
  const char* names[3] = {"sim", "threaded", "process"};
  for (int i = 0; i < 3; ++i) {
    driver::ExperimentConfig config = live_config(in, seed, names[i]);
    config.iterations = iterations;
    config.train = true;
    const driver::RunRecord record = driver::make_runtime(names[i])->run(config);
    check(record.final_loss.has_value(),
          std::string("live: ") + names[i] + " reported no final loss");
    check(record.failures == 0,
          std::string("live: ") + names[i] + " had failed iterations");
    loss[i] = *record.final_loss;
  }
  check(loss[0] == loss[1] && loss[1] == loss[2],
        "live: final loss differs across sim/threaded/process runtimes (" +
            format("%.17g / %.17g / %.17g", loss[0], loss[1], loss[2]) + ")");
  return loss[1];
}

constexpr std::size_t kTailBlock = 100;

Report run_live(const RunSpec& spec, LiveRuntime runtime) {
  if (runtime == LiveRuntime::kProcess &&
      !coupon::runtime::ProcessCluster::supported()) {
    throw std::runtime_error("the process runtime needs fork() and sockets");
  }
  const LiveInputs in = live_inputs(spec);
  const std::uint64_t seed = derive_seed(spec.seed, 0);

  // Untimed warm-up: the held-out three-runtime check, then the reference
  // final loss of the measured config.
  check_live_runtimes(in, derive_seed(spec.holdout_seed, 0), in.iterations / 10);
  double reference = check_live_runtimes(in, seed, in.iterations);
  if (spec.corrupt_expected) {
    reference = std::nextafter(reference, 1.0);
  }

  Report report;
  std::vector<double> setup_s;
  Reservoir iter_us;
  std::vector<double> rates;
  std::vector<double> tails;
  const auto start = Clock::now();
  const std::size_t min_episodes = 3;
  for (std::size_t e = 0; e < min_episodes || seconds_since(start) < spec.seconds;
       ++e) {
    LiveEpisode ep = run_live_episode(runtime, in, seed, /*traced=*/false);
    check(ep.final_loss == reference,
          "live: episode final loss " + format("%.17g", ep.final_loss) +
              " differs from the Runtime::run reference " +
              format("%.17g", reference));
    setup_s.push_back(ep.setup_s);
    rates.push_back(static_cast<double>(ep.iterations - ep.failed) / ep.iter_s);
    for (const double us : ep.iter_us) {
      iter_us.add(us);
    }
    // Tail per block of consecutive iterations: p90 of 100 samples is the
    // highest percentile with ten samples beyond it.
    for (std::size_t b = 0; b + kTailBlock <= ep.iter_us.size(); b += kTailBlock) {
      tails.push_back(summarize({ep.iter_us.begin() + static_cast<std::ptrdiff_t>(b),
                                 ep.iter_us.begin() +
                                     static_cast<std::ptrdiff_t>(b + kTailBlock)})
                          .tail);
    }
    report.attempted += in.iterations;
    report.failed += ep.failed + (in.iterations - ep.iterations);
  }
  add_end_to_end(report, rates, iter_us, setup_s, tails);
  report.note(format("inputs: bcc, no_stragglers, n = %.0f, m = %.0f, r = %.0f, p = %.0f",
                     static_cast<double>(in.n), static_cast<double>(in.m),
                     static_cast<double>(in.load), static_cast<double>(in.features)) +
              format(", %.0f examples/unit, %.0f iterations per episode",
                     static_cast<double>(in.examples_per_unit),
                     static_cast<double>(in.iterations)));
  report.note("checks: final loss equal bit for bit across sim/threaded/process "
              "(workload and held-out seed) and on every episode");
  return report;
}

}  // namespace

// --- shared construction --------------------------------------------------

core::SchemeConfig scheme_config(std::size_t n, std::size_t m, std::size_t load,
                                 bool seed_first_batches) {
  core::SchemeConfig sconf;
  sconf.num_workers = n;
  sconf.num_units = m;
  sconf.load = load;
  sconf.bcc_seed_first_batches = seed_first_batches;
  return sconf;
}

MegaInputs mega_inputs(const RunSpec& spec) {
  MegaInputs in;
  if (spec.tiny) {
    in.n = 4000;
  }
  return in;
}

LiveInputs live_inputs(const RunSpec& spec) {
  LiveInputs in;
  if (spec.tiny) {
    in.iterations = 50;
  }
  return in;
}

std::uint64_t mega_cell_seed(std::uint64_t workload_seed, std::size_t episode,
                             std::size_t cell) {
  return derive_seed(workload_seed, 1000 * episode + cell);
}

MegaCell build_mega_cell(const std::string& scheme, const MegaInputs& in,
                         const simulate::ClusterConfig& cluster,
                         std::uint64_t seed) {
  MegaCell cell;
  cell.rng = stats::Rng(seed);
  {
    const trace::Scope span(trace::Span::kSchemeBuild);
    cell.scheme = core::SchemeRegistry::instance().create(
        scheme, scheme_config(in.n, in.n, in.load, false), cell.rng);
  }
  cell.model = simulate::make_latency_model(cluster, in.n);
  {
    const trace::Scope span(trace::Span::kKernelBuild);
    cell.kernel =
        std::make_unique<simulate::IterationKernel>(*cell.scheme, cluster);
  }
  return cell;
}

GridInputs grid_inputs(const RunSpec& spec, bool traced) {
  GridInputs in;
  in.timing_schemes = core::SchemeRegistry::instance().names();
  in.threads = nproc();
  const std::size_t num_seeds = spec.tiny ? 1 : (traced ? 1 : 4);
  for (std::size_t s = 0; s < num_seeds; ++s) {
    in.seeds.push_back(derive_seed(spec.seed, 100 + s));
  }
  if (spec.tiny) {
    in.workers = {20};
    in.load = 4;
    in.timing_iterations = 60;
    in.train_iterations = 20;
  } else if (traced) {
    in.timing_iterations = 200;
    in.train_iterations = 50;
  } else {
    in.timing_iterations = 500;
    in.train_iterations = 100;
  }
  return in;
}

coupon::driver::SweepPlan timing_plan(const GridInputs& in) {
  driver::SweepPlan plan;
  plan.base.runtime = "sim";
  plan.base.record_trace = false;
  plan.base.iterations = in.timing_iterations;
  plan.schemes = in.timing_schemes;
  plan.scenarios = in.scenarios;
  plan.workers = in.workers;
  plan.loads = {in.load};
  plan.seeds = in.seeds;
  return plan;
}

coupon::driver::SweepPlan train_plan(const GridInputs& in) {
  driver::SweepPlan plan;
  plan.base.runtime = "sim";
  plan.base.record_trace = false;
  plan.base.train = true;
  plan.base.optimizer = "nesterov";
  plan.base.features = in.features;
  plan.base.examples_per_unit = in.examples_per_unit;
  plan.base.iterations = in.train_iterations;
  plan.schemes = in.train_schemes;
  plan.scenarios = {"shifted_exp"};
  plan.workers = in.workers;
  plan.loads = {in.load};
  plan.seeds = in.seeds;
  return plan;
}

bool same_outputs(const driver::RunRecord& a, const driver::RunRecord& b) {
  return a.total_time == b.total_time &&
         a.recovery_threshold == b.recovery_threshold &&
         a.comm_time == b.comm_time && a.compute_time == b.compute_time &&
         a.failures == b.failures && a.iterations_run == b.iterations_run &&
         a.final_loss == b.final_loss;
}

coupon::driver::ExperimentConfig live_config(const LiveInputs& in,
                                             std::uint64_t seed,
                                             const std::string& runtime) {
  driver::ExperimentConfig config;
  config.scheme = in.scheme;
  config.scenario = in.scenario;
  config.runtime = runtime;
  config.num_workers = in.n;
  config.num_units = in.m;
  config.load = in.load;
  config.iterations = in.iterations;
  config.seed = seed;
  config.features = in.features;
  config.examples_per_unit = in.examples_per_unit;
  config.learning_rate = in.learning_rate;
  config.optimizer = "nesterov";
  return config;
}

LiveEpisode run_live_episode(LiveRuntime runtime, const LiveInputs& in,
                             std::uint64_t seed, bool traced) {
  using trace::Scope;
  using trace::Span;
  LiveEpisode ep;
  const std::int64_t t0 = trace::now_ns();
  const driver::Scenario scenario =
      driver::ScenarioRegistry::instance().build(in.scenario, in.n);

  // The draw order of ThreadedRuntime::run / ProcessRuntime::run: data,
  // then the scheme, from one stream.
  stats::Rng rng(seed);
  coupon::data::SyntheticConfig dconf;
  dconf.num_features = in.features;
  const std::size_t examples = in.m * in.examples_per_unit;
  coupon::data::SyntheticProblem problem;
  {
    const Scope span(Span::kDataGenerate);
    problem = coupon::data::generate_logreg(examples, dconf, rng);
  }
  const coupon::data::BatchPartition partition(examples, in.examples_per_unit);
  const core::GroupedBatchSource base_source(problem.dataset, partition);
  std::unique_ptr<core::Scheme> base_scheme;
  {
    const Scope span(Span::kSchemeBuild);
    base_scheme = core::SchemeRegistry::instance().create(
        in.scheme, scheme_config(in.n, in.m, in.load, true), rng);
  }
  std::optional<trace::TracedScheme> traced_scheme;
  std::optional<trace::TracedSource> traced_source;
  const core::Scheme& scheme =
      traced ? traced_scheme.emplace(*base_scheme) : *base_scheme;
  const core::UnitGradientSource& source =
      traced ? static_cast<const core::UnitGradientSource&>(
                   traced_source.emplace(base_source))
             : base_source;

  coupon::opt::NesterovGradient nesterov(
      in.features, coupon::opt::LearningRateSchedule::constant(in.learning_rate));
  trace::StampedOptimizer optimizer(nesterov, in.iterations);
  coupon::engine::TrainOptions base;
  base.iterations = in.iterations;
  const coupon::data::Dataset* dataset = &problem.dataset;
  base.loss_fn = [dataset](std::span<const double> w) {
    return coupon::opt::logistic_loss(*dataset, w);
  };
  base.approximate_recovery =
      core::SchemeRegistry::instance().find(in.scheme)->caps.approximate_recovery;

  coupon::engine::TrainReport report;
  std::int64_t train_call = 0;
  if (runtime == LiveRuntime::kThreaded) {
    const std::int64_t b0 = trace::now_ns();
    std::optional<coupon::runtime::ThreadCluster> cluster;
    {
      const Scope span(Span::kClusterBuild);
      cluster.emplace(scheme, source, seed + 42);
    }
    ep.cluster_build_ms = static_cast<double>(trace::now_ns() - b0) * 1e-6;
    coupon::runtime::TrainOptions options;
    static_cast<coupon::engine::TrainOptions&>(options) = base;
    options.straggler = scenario.straggler;
    options.elasticity = scenario.elasticity;
    train_call = trace::now_ns();
    const Scope span(Span::kTrain);
    report = cluster->train(optimizer, options);
  } else {
    const std::int64_t b0 = trace::now_ns();
    std::optional<coupon::runtime::ProcessCluster> cluster;
    {
      const Scope span(Span::kClusterBuild);
      cluster.emplace(scheme, source, seed + 42);
    }
    ep.cluster_build_ms = static_cast<double>(trace::now_ns() - b0) * 1e-6;
    coupon::runtime::ProcessTrainOptions options;
    static_cast<coupon::engine::TrainOptions&>(options) = base;
    options.straggler = scenario.straggler;
    options.elasticity = scenario.elasticity;
    options.worker_timeout = std::chrono::milliseconds(
        driver::ExperimentConfig{}.worker_timeout_ms);
    train_call = trace::now_ns();
    const Scope span(Span::kTrain);
    report = cluster->train(optimizer, options).report;
  }

  const std::int64_t first = optimizer.first_query_ns();
  const std::vector<std::int64_t>& applies = optimizer.applies_ns();
  check(first > 0 && !applies.empty(), "live: no iteration completed");
  ep.setup_s = static_cast<double>(first - t0) * 1e-9;
  ep.train_to_first_ms = static_cast<double>(first - train_call) * 1e-6;
  ep.iter_s = static_cast<double>(applies.back() - first) * 1e-9;
  ep.iter_us.reserve(applies.size());
  std::int64_t prev = first;
  for (const std::int64_t a : applies) {
    ep.iter_us.push_back(static_cast<double>(a - prev) * 1e-3);
    prev = a;
  }
  ep.iterations = report.iterations_run;
  ep.failed = report.failed_iterations;
  check(report.final_loss.has_value(), "live: no final loss");
  ep.final_loss = *report.final_loss;
  return ep;
}

Report run_workload(const std::string& name, const RunSpec& spec) {
  if (name == "sim_mega") {
    return run_sim_mega(spec);
  }
  if (name == "paper_grid") {
    return run_paper_grid(spec);
  }
  if (name == "live_process") {
    return run_live(spec, LiveRuntime::kProcess);
  }
  if (name == "live_threaded") {
    return run_live(spec, LiveRuntime::kThreaded);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
