/// \file traced_run.cpp
/// The traced run: each workload once untraced and once through the span
/// decorators, with the per-layer split computed from the spans, the
/// tracing overhead from the two runs' throughputs, and a check that the
/// traced outputs (K, simulated times, final loss) are bit-identical to
/// the untraced ones.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "comm/message.hpp"
#include "core/scheme_registry.hpp"
#include "data/batching.hpp"
#include "data/synthetic.hpp"
#include "driver/runtime.hpp"
#include "driver/scenario_registry.hpp"
#include "engine/simulated_provider.hpp"
#include "opt/logistic.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = coupon::core;
namespace driver = coupon::driver;
namespace simulate = coupon::simulate;
namespace stats = coupon::stats;
using trace::Scope;
using trace::Span;

namespace {

double ns_to_us(double ns) { return ns * 1e-3; }
double ns_to_ms(double ns) { return ns * 1e-6; }

double per(double total, double count) { return count > 0 ? total / count : 0.0; }

bool same_iteration(const simulate::IterationReport& a,
                    const simulate::IterationReport& b) {
  return a.total_time == b.total_time && a.compute_time == b.compute_time &&
         a.comm_time == b.comm_time && a.workers_heard == b.workers_heard &&
         a.units_received == b.units_received && a.recovered == b.recovered;
}

void write_section_spans(const std::string& spans_path,
                         const std::string& workload, Report& report) {
  if (spans_path.empty()) {
    return;
  }
  const std::string path = spans_path + "-" + workload + ".csv";
  const auto [written, dropped] = trace::write_spans(path);
  report.note(workload + ": " + std::to_string(written) + " spans written to " +
              path + " (" + std::to_string(dropped) +
              " beyond capacity kept only in the aggregates)");
}

// --- sim_mega -------------------------------------------------------------

void traced_sim_mega(const RunSpec& spec, Report& report) {
  const MegaInputs in = mega_inputs(spec);
  const simulate::ClusterConfig cluster =
      driver::ScenarioRegistry::instance().build(in.scenario, in.n).cluster;
  const std::size_t steps = 2;

  double untraced_kernel_ns = 0.0;
  double draw_ns = 0.0;
  double draws = 0.0;
  double sorted = 0.0;
  double drawn = 0.0;
  double heard = 0.0;
  double iterations = 0.0;
  trace::reset();
  for (std::size_t c = 0; c < in.schemes.size(); ++c) {
    const std::uint64_t seed = mega_cell_seed(spec.seed, 0, c);
    std::vector<simulate::IterationReport> expected;
    {
      MegaCell plain = build_mega_cell(in.schemes[c], in, cluster, seed);
      for (std::size_t s = 0; s < steps; ++s) {
        const std::int64_t t0 = trace::now_ns();
        expected.push_back(plain.kernel->run(*plain.model, s, plain.rng));
        untraced_kernel_ns += static_cast<double>(trace::now_ns() - t0);
      }
    }

    trace::set_enabled(true);
    trace::set_run(static_cast<std::uint32_t>(c));
    MegaCell base = build_mega_cell(in.schemes[c], in, cluster, seed);
    const trace::TracedScheme traced(*base.scheme);
    simulate::IterationKernel kernel(traced, cluster);
    const auto model = simulate::make_latency_model(cluster, in.n);
    const auto draw_model = simulate::make_latency_model(cluster, in.n);
    stats::Rng rng = base.rng;  // positioned after the scheme's draws
    for (std::size_t s = 0; s < steps; ++s) {
      const stats::Rng before = rng;
      simulate::IterationReport it;
      {
        const Scope span(Span::kKernelRun);
        it = kernel.run(*model, s, rng);
      }
      check(same_iteration(it, expected[s]),
            "traced sim_mega/" + in.schemes[c] +
                ": iteration differs from the untraced run");

      // Draw + select alone, on the same draws: the untraced kernel's
      // lazy path served up to the K-th arrival.
      stats::Rng replay = before;
      std::size_t count = 0;
      {
        const Scope span(Span::kDrawSelect);
        count = base.kernel->begin_lazy_arrivals(*base.model, s, replay);
        for (std::size_t k = 0; k < it.workers_heard; ++k) {
          base.kernel->sorted_arrival(k);
        }
      }
      // The sorted prefix: start prefix, doubled until it holds K arrivals.
      std::size_t prefix = std::min(base.kernel->start_prefix(), count);
      while (prefix < count && it.workers_heard > prefix) {
        prefix = std::min(count, prefix * 2);
      }
      sorted += static_cast<double>(prefix);
      drawn += static_cast<double>(count);
      heard += static_cast<double>(it.workers_heard);
      iterations += 1.0;

      // One latency draw per loaded worker, timed as a loop.
      stats::Rng draw_rng = before;
      draw_model->begin_iteration(s, draw_rng);
      double sink = 0.0;
      const std::int64_t d0 = trace::now_ns();
      for (std::size_t w = 0; w < in.n; ++w) {
        const double load =
            static_cast<double>(base.scheme->placement().worker(w).size());
        if (load > 0.0) {
          sink += draw_model->sample_compute_seconds({w, s, load}, draw_rng);
          draws += 1.0;
        }
      }
      draw_ns += static_cast<double>(trace::now_ns() - d0);
      check(sink > 0.0, "sim_mega: latency draws summed to zero");
    }
    trace::set_enabled(false);
  }

  const trace::Aggregate run = trace::aggregate(Span::kKernelRun);
  const trace::Aggregate select = trace::aggregate(Span::kDrawSelect);
  const trace::Aggregate build = trace::aggregate(Span::kKernelBuild);
  const trace::Aggregate scheme = trace::aggregate(Span::kSchemeBuild);
  report.attempted += static_cast<std::uint64_t>(iterations);
  report.add("simulate.draw_select_us",
             ns_to_us(per(static_cast<double>(select.total_ns), iterations)), "us");
  report.add("simulate.scan_offer_us",
             ns_to_us(per(untraced_kernel_ns - static_cast<double>(select.total_ns),
                          iterations)),
             "us");
  report.add("simulate.kernel_build_ms",
             ns_to_ms(per(static_cast<double>(build.total_ns),
                          static_cast<double>(build.count))),
             "ms");
  report.add("simulate.sorted_frac", per(sorted, drawn), "ratio");
  report.add("simulate.heard_frac", per(heard, drawn), "ratio");
  report.add("stats.draw_ns", per(draw_ns, draws), "ns");
  report.add("core.scheme_build_ms",
             ns_to_ms(per(static_cast<double>(scheme.total_ns),
                          static_cast<double>(scheme.count))),
             "ms");
  report.add("trace.overhead.sim_mega",
             per(untraced_kernel_ns, static_cast<double>(run.total_ns)), "ratio");
  report.add("trace.span_cover.sim_mega",
             per(static_cast<double>(run.child_ns), static_cast<double>(run.total_ns)),
             "ratio");
}

// --- paper_grid -----------------------------------------------------------

core::SchemeConfig cell_scheme_config(const driver::ExperimentConfig& config) {
  return scheme_config(config.num_workers, config.num_units, config.load,
                       config.train);
}

/// A timing-only cell driven through the traced scheme, aggregated the
/// way simulate_run aggregates.
void traced_timing_cell(const driver::ExperimentConfig& config,
                        const driver::RunRecord& expected) {
  const driver::Scenario scenario = driver::ScenarioRegistry::instance().build(
      config.scenario, config.num_workers);
  stats::Rng rng(config.seed);
  std::unique_ptr<core::Scheme> scheme;
  {
    const Scope span(Span::kSchemeBuild);
    scheme = core::SchemeRegistry::instance().create(
        config.scheme, cell_scheme_config(config), rng);
  }
  const trace::TracedScheme traced(*scheme);
  const auto model =
      simulate::make_latency_model(scenario.cluster, config.num_workers);
  std::optional<simulate::IterationKernel> kernel;
  {
    const Scope span(Span::kKernelBuild);
    kernel.emplace(traced, scenario.cluster);
  }
  simulate::RunReport run;
  for (std::size_t t = 0; t < config.iterations; ++t) {
    simulate::IterationReport it;
    {
      const Scope span(Span::kKernelRun);
      it = kernel->run(*model, t, rng);
    }
    run.total_time += it.total_time;
    run.total_compute_time += it.compute_time;
    run.total_comm_time += it.comm_time;
    run.workers_heard.add(static_cast<double>(it.workers_heard));
    run.units_received.add(it.units_received);
    if (!it.recovered) {
      ++run.failures;
    }
  }
  check(run.total_time == expected.total_time &&
            run.total_compute_time == expected.compute_time &&
            run.total_comm_time == expected.comm_time &&
            run.workers_heard.mean() == expected.recovery_threshold &&
            run.failures == expected.failures,
        "traced paper_grid/" + config.scheme + "/" + config.scenario +
            ": outputs differ from the untraced run");
}

/// A training cell assembled as SimulatedRuntime::run's train branch
/// assembles it, with every seam decorated. Returns mean L.
double traced_train_cell(const driver::ExperimentConfig& config,
                         const driver::RunRecord& expected) {
  const driver::Scenario scenario = driver::ScenarioRegistry::instance().build(
      config.scenario, config.num_workers);
  stats::Rng rng(config.seed);
  coupon::data::SyntheticConfig dconf;
  dconf.num_features = config.features;
  const std::size_t examples = config.num_units * config.examples_per_unit;
  coupon::data::SyntheticProblem problem;
  {
    const Scope span(Span::kDataGenerate);
    problem = coupon::data::generate_logreg(examples, dconf, rng);
  }
  const coupon::data::BatchPartition partition(examples,
                                               config.examples_per_unit);
  const core::GroupedBatchSource base_source(problem.dataset, partition);
  const trace::TracedSource source(base_source);
  std::unique_ptr<core::Scheme> scheme;
  {
    const Scope span(Span::kSchemeBuild);
    scheme = core::SchemeRegistry::instance().create(
        config.scheme, cell_scheme_config(config), rng);
  }
  const trace::TracedScheme traced(*scheme);
  coupon::engine::SimulatedProvider inner(traced, source, scenario.cluster, rng);
  trace::TracedProvider provider(inner);
  coupon::opt::NesterovGradient nesterov(
      config.features,
      coupon::opt::LearningRateSchedule::constant(config.learning_rate));
  trace::StampedOptimizer optimizer(nesterov, config.iterations);

  coupon::engine::TrainOptions options;
  options.iterations = config.iterations;
  options.on_failure = config.on_failure;
  const coupon::data::Dataset* dataset = &problem.dataset;
  options.loss_fn = [dataset](std::span<const double> w) {
    return coupon::opt::logistic_loss(*dataset, w);
  };
  options.approximate_recovery = core::SchemeRegistry::instance()
                                     .find(config.scheme)
                                     ->caps.approximate_recovery;
  coupon::engine::TrainLoop loop(traced, source, provider, optimizer, options);
  while (!loop.done()) {
    const Scope span(Span::kTrainStep);
    loop.step();
  }
  const coupon::engine::TrainReport result = loop.take_report();
  check(result.final_loss == expected.final_loss &&
            result.elapsed_seconds == expected.total_time &&
            result.workers_heard.mean() == expected.recovery_threshold &&
            result.failed_iterations == expected.failures,
        "traced paper_grid/train/" + config.scheme +
            ": outputs differ from the untraced run");
  return result.units_received.mean();
}

void traced_paper_grid(const RunSpec& spec, Report& report) {
  const GridInputs in = grid_inputs(spec, /*traced=*/true);
  const driver::SweepPlan tplan = timing_plan(in);
  const driver::SweepPlan cplan = train_plan(in);
  const auto timing_cells = driver::expand_plan(tplan);
  const auto train_cells = driver::expand_plan(cplan);
  driver::SweepOptions options;
  options.threads = in.threads;

  // Untraced: the sweep (pool wall), then every cell serially through
  // Runtime::run (the driver layer's per-cell time).
  driver::run_sweep(tplan, options);  // warm-up
  const std::int64_t s0 = trace::now_ns();
  const auto timing = driver::run_sweep(tplan, options);
  const auto train = driver::run_sweep(cplan, options);
  const double sweep_ns = static_cast<double>(trace::now_ns() - s0);

  const driver::SimulatedRuntime sim;
  std::vector<double> cell_ms;
  double serial_ns = 0.0;
  double iterations = 0.0;
  auto serial = [&](const std::vector<driver::SweepCell>& cells,
                    const std::vector<driver::RunRecord>& records) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::int64_t t0 = trace::now_ns();
      const driver::RunRecord record = sim.run(cells[i].config);
      const double dt = static_cast<double>(trace::now_ns() - t0);
      check(same_outputs(record, records[i]),
            "paper_grid: serial Runtime::run differs from the sweep");
      cell_ms.push_back(ns_to_ms(dt));
      serial_ns += dt;
      iterations += static_cast<double>(cells[i].config.iterations);
    }
  };
  serial(timing_cells, timing);
  serial(train_cells, train);

  // Traced: the same cells through the decorators, timing cells first.
  trace::reset();
  trace::set_enabled(true);
  const std::int64_t t0 = trace::now_ns();
  for (std::size_t i = 0; i < timing_cells.size(); ++i) {
    trace::set_run(static_cast<std::uint32_t>(i));
    traced_timing_cell(timing_cells[i].config, timing[i]);
  }
  const double traced_timing_ns = static_cast<double>(trace::now_ns() - t0);
  trace::set_enabled(false);
  trace::reset();  // the per-layer split below is the training path's
  trace::set_enabled(true);
  const std::int64_t t1 = trace::now_ns();
  double units = 0.0;
  double train_iterations = 0.0;
  for (std::size_t i = 0; i < train_cells.size(); ++i) {
    trace::set_run(static_cast<std::uint32_t>(timing_cells.size() + i));
    const double iters = static_cast<double>(train_cells[i].config.iterations);
    units += traced_train_cell(train_cells[i].config, train[i]) * iters;
    train_iterations += iters;
  }
  const double traced_train_ns = static_cast<double>(trace::now_ns() - t1);
  trace::set_enabled(false);

  report.attempted += static_cast<std::uint64_t>(iterations);
  const Latency cells = summarize(cell_ms);
  const auto agg = [](Span s) { return trace::aggregate(s); };
  const double it = train_iterations;
  const trace::Aggregate step = agg(Span::kTrainStep);
  const double provider_self =
      static_cast<double>(agg(Span::kProviderBegin).self_ns() +
                          agg(Span::kProviderNext).self_ns() +
                          agg(Span::kProviderEnd).self_ns());
  report.add("core.offer_ns",
             per(static_cast<double>(agg(Span::kOffer).total_ns),
                 static_cast<double>(agg(Span::kOffer).count)),
             "ns");
  report.add("core.decode_us",
             ns_to_us(per(static_cast<double>(agg(Span::kDecode).total_ns), it)), "us");
  report.add("core.encode_us",
             ns_to_us(per(static_cast<double>(agg(Span::kEncode).total_ns), it)), "us");
  report.add("core.encodes_per_arrival",
             per(static_cast<double>(trace::counter(trace::Counter::kEncodes)),
                 static_cast<double>(trace::counter(trace::Counter::kArrivals))),
             "ratio");
  report.add("core.units_per_iter", per(units, it), "units");
  report.add("engine.gradient_us",
             ns_to_us(per(static_cast<double>(agg(Span::kGradient).total_ns), it)),
             "us");
  report.add("engine.grad_units_per_iter",
             per(static_cast<double>(trace::counter(trace::Counter::kGradUnits)), it),
             "units");
  report.add("engine.provider_self_us", ns_to_us(per(provider_self, it)), "us");
  report.add("engine.step_self_us",
             ns_to_us(per(static_cast<double>(step.self_ns()), it)), "us");
  report.add("opt.step_us",
             ns_to_us(per(static_cast<double>(agg(Span::kApply).total_ns),
                          static_cast<double>(agg(Span::kApply).count))),
             "us");
  report.add("data.generate_ms",
             ns_to_ms(per(static_cast<double>(agg(Span::kDataGenerate).total_ns),
                          static_cast<double>(agg(Span::kDataGenerate).count))),
             "ms");
  report.add("driver.cell_p50_ms", cells.p50, "ms");
  report.add("driver.cell_tail_ms", cells.tail, "ms");
  report.add("driver.pool_util",
             per(serial_ns, static_cast<double>(in.threads) * sweep_ns), "ratio");
  report.add("trace.overhead.paper_grid",
             per(serial_ns, traced_timing_ns + traced_train_ns), "ratio");
  report.add("trace.span_cover.paper_grid",
             per(static_cast<double>(step.child_ns), static_cast<double>(step.total_ns)),
             "ratio");
  char line[200];
  std::snprintf(line, sizeof line,
                "paper_grid: driver.cell_tail_ms is p%.2f of %zu cells; %.0f "
                "iterations per serial pass",
                cells.tail_percentile, cells.count, iterations);
  report.note(line);
}

// --- live_* ---------------------------------------------------------------

/// Serialize/deserialize cost on the workload's two frame shapes (model
/// broadcast and bcc gradient reply), plus the per-iteration frame and
/// byte counts computed from Message::wire_size.
void comm_layer(const LiveInputs& in, std::uint64_t seed, Report& report) {
  stats::Rng rng(seed);
  coupon::data::SyntheticConfig dconf;
  dconf.num_features = in.features;
  const std::size_t examples = in.m * in.examples_per_unit;
  const auto problem = coupon::data::generate_logreg(examples, dconf, rng);
  const coupon::data::BatchPartition partition(examples, in.examples_per_unit);
  const core::GroupedBatchSource source(problem.dataset, partition);
  const auto scheme = core::SchemeRegistry::instance().create(
      in.scheme, scheme_config(in.n, in.m, in.load, true), rng);

  std::vector<double> w(in.features);
  for (double& v : w) {
    v = rng.normal();
  }
  coupon::comm::Message broadcast;
  broadcast.source = 0;
  broadcast.dest = 1;
  broadcast.tag = coupon::comm::kTagModelBroadcast;
  broadcast.iteration = 7;
  broadcast.payload = w;
  coupon::comm::Message reply = scheme->encode(0, source, w);
  reply.source = 1;
  reply.dest = 0;
  reply.tag = coupon::comm::kTagGradient;
  reply.iteration = 7;
  const coupon::comm::Message* shapes[2] = {&broadcast, &reply};

  const std::size_t reps = 20000;
  std::size_t bytes = 0;
  const std::int64_t s0 = trace::now_ns();
  for (std::size_t i = 0; i < reps; ++i) {
    bytes += coupon::comm::serialize(*shapes[i % 2]).size();
  }
  const double serialize_ns = static_cast<double>(trace::now_ns() - s0);
  const std::vector<std::uint8_t> frames[2] = {coupon::comm::serialize(broadcast),
                                               coupon::comm::serialize(reply)};
  coupon::comm::Message decoded;
  bool ok = true;
  const std::int64_t d0 = trace::now_ns();
  for (std::size_t i = 0; i < reps; ++i) {
    ok = coupon::comm::deserialize(frames[i % 2], decoded) && ok;
  }
  const double deserialize_ns = static_cast<double>(trace::now_ns() - d0);
  check(ok && decoded == reply && bytes > 0,
        "comm: a frame did not survive serialize/deserialize");

  const double n = static_cast<double>(in.n);
  report.add("comm.serialize_us", ns_to_us(serialize_ns / reps), "us");
  report.add("comm.deserialize_us", ns_to_us(deserialize_ns / reps), "us");
  report.add("comm.frames_per_iter", 2.0 * n, "frames");
  report.add("comm.bytes_per_iter",
             n * static_cast<double>(broadcast.wire_size() + reply.wire_size()),
             "bytes");
  report.note("live_process: comm.frames_per_iter and comm.bytes_per_iter are "
              "computed from Message::wire_size, not counted on the socket");
}

void traced_live(const RunSpec& spec, LiveRuntime runtime, Report& report) {
  const bool process = runtime == LiveRuntime::kProcess;
  const std::string name = process ? "live_process" : "live_threaded";
  const LiveInputs in = live_inputs(spec);
  const std::uint64_t seed = derive_seed(spec.seed, 0);
  const std::size_t episodes = 3;

  run_live_episode(runtime, in, seed, false);  // warm-up
  double untraced_s = 0.0;
  double untraced_iters = 0.0;
  std::vector<double> cluster_ms;
  std::vector<double> first_ms;
  double loss = 0.0;
  for (std::size_t e = 0; e < episodes; ++e) {
    const LiveEpisode ep = run_live_episode(runtime, in, seed, false);
    untraced_s += ep.iter_s;
    untraced_iters += static_cast<double>(ep.iterations);
    cluster_ms.push_back(ep.cluster_build_ms);
    first_ms.push_back(ep.train_to_first_ms);
    loss = ep.final_loss;
  }

  trace::reset();
  trace::set_enabled(true);
  double traced_s = 0.0;
  double iters = 0.0;
  for (std::size_t e = 0; e < episodes; ++e) {
    trace::set_run(static_cast<std::uint32_t>(e));
    const LiveEpisode ep = run_live_episode(runtime, in, seed, true);
    check(ep.final_loss == loss,
          "traced " + name + ": final loss differs from the untraced run");
    traced_s += ep.iter_s;
    iters += static_cast<double>(ep.iterations);
  }
  trace::set_enabled(false);
  report.attempted += static_cast<std::uint64_t>(iters);

  const trace::Aggregate offer = trace::aggregate(Span::kOffer, true);
  const double busy_ns =
      static_cast<double>(offer.total_ns +
                          trace::aggregate(Span::kDecode, true).total_ns +
                          trace::aggregate(Span::kApply, true).total_ns);
  const double busy_us = ns_to_us(per(busy_ns, iters));
  const double wall_us = per(traced_s, iters) * 1e6;
  const std::string prefix = process ? "runtime.process." : "runtime.threaded.";
  report.add(prefix + "master_busy_us", busy_us, "us");
  report.add(prefix + "master_wait_us", wall_us - busy_us, "us");
  report.add("trace.overhead." + name,
             per(iters / traced_s, untraced_iters / untraced_s), "ratio");
  report.add("trace.span_cover." + name, per(busy_us, wall_us), "ratio");
  if (process) {
    const double replies = static_cast<double>(in.n) * iters;
    report.add("runtime.stale_frac",
               per(replies - static_cast<double>(offer.count), replies), "ratio");
    report.add("runtime.fork_connect_ms", median(first_ms), "ms");
    comm_layer(in, seed, report);
  } else {
    const trace::Aggregate encode = trace::worker_aggregate(Span::kEncode);
    report.add("runtime.worker_compute_us",
               ns_to_us(per(static_cast<double>(encode.total_ns),
                            static_cast<double>(encode.count))),
               "us");
    report.add("runtime.thread_spawn_ms", median(cluster_ms), "ms");
  }
}

}  // namespace

Report run_traced(const RunSpec& spec, const std::string& spans_path) {
  Report report;
  traced_sim_mega(spec, report);
  write_section_spans(spans_path, "sim_mega", report);
  traced_paper_grid(spec, report);
  write_section_spans(spans_path, "paper_grid", report);
  traced_live(spec, LiveRuntime::kProcess, report);
  write_section_spans(spans_path, "live_process", report);
  traced_live(spec, LiveRuntime::kThreaded, report);
  write_section_spans(spans_path, "live_threaded", report);
  return report;
}

}  // namespace perfbench
