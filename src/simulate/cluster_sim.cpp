#include "simulate/cluster_sim.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace coupon::simulate {

void validate_cluster_config(const ClusterConfig& config,
                             std::size_t num_workers) {
  COUPON_ASSERT_MSG(config.compute_shift >= 0.0,
                    "compute_shift must be >= 0, got "
                        << config.compute_shift);
  COUPON_ASSERT_MSG(config.compute_straggle > 0.0,
                    "compute_straggle must be > 0, got "
                        << config.compute_straggle);
  COUPON_ASSERT_MSG(config.unit_transfer_seconds >= 0.0,
                    "unit_transfer_seconds must be >= 0, got "
                        << config.unit_transfer_seconds);
  COUPON_ASSERT_MSG(config.broadcast_seconds >= 0.0,
                    "broadcast_seconds must be >= 0, got "
                        << config.broadcast_seconds);
  COUPON_ASSERT_MSG(
      config.drop_probability >= 0.0 && config.drop_probability <= 1.0,
      "drop_probability must be in [0, 1], got " << config.drop_probability);
  COUPON_ASSERT_MSG(config.worker_overrides.empty() ||
                        config.worker_overrides.size() == num_workers,
                    "worker_overrides must be empty or size n");
  for (std::size_t i = 0; i < config.worker_overrides.size(); ++i) {
    const auto& o = config.worker_overrides[i];
    COUPON_ASSERT_MSG(o.compute_shift >= 0.0 && o.compute_straggle > 0.0,
                      "worker_overrides[" << i << "]: shift="
                                          << o.compute_shift << " straggle="
                                          << o.compute_straggle);
  }
}

std::unique_ptr<LatencyModel> make_latency_model(const ClusterConfig& config,
                                                 std::size_t num_workers) {
  validate_cluster_config(config, num_workers);
  if (config.latency_model) {
    auto model = config.latency_model(num_workers);
    COUPON_ASSERT_MSG(model != nullptr,
                      "ClusterConfig::latency_model returned null");
    return model;
  }
  return std::make_unique<ShiftedExpModel>(config.compute_shift,
                                           config.compute_straggle,
                                           config.worker_overrides);
}

namespace {

using Arrival = IterationKernel::Arrival;

/// The DES heap executed compute completions in (time, scheduling-seq)
/// order, and completions were scheduled in worker order, so
/// (time, worker) reproduces it exactly. Keys are unique — at most one
/// arrival per worker — which makes every sorted prefix a deterministic
/// function of the draw, whether produced by a full sort or by
/// selection (DESIGN.md §7.4).
inline bool arrival_less(const Arrival& a, const Arrival& b) {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  return a.worker < b.worker;
}

/// Draw phase — one drop Bernoulli then (for loaded workers) one model
/// sample per worker, in worker order: the exact RNG consumption order
/// of the historical event loop's scheduling pass. Fills `out` (size n)
/// front-to-first and returns the number of arrivals; `model` is
/// advanced (`begin_iteration`) before any draw.
std::size_t draw_arrivals_into(std::span<Arrival> out,
                               std::span<const double> loads,
                               const ClusterConfig& config, LatencyModel& model,
                               std::size_t iteration, stats::Rng& rng) {
  model.begin_iteration(iteration, rng);
  const std::size_t n = loads.size();
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (config.drop_probability > 0.0 &&
        rng.bernoulli(config.drop_probability)) {
      continue;  // message lost: this worker never reports
    }
    double compute = 0.0;
    if (loads[i] > 0.0) {
      compute = model.sample_compute_seconds({i, iteration, loads[i]}, rng);
      COUPON_ASSERT_MSG(compute >= 0.0 && std::isfinite(compute),
                        "latency model '" << model.name() << "' drew "
                                          << compute << " for worker " << i);
    }
    out[count].time = config.broadcast_seconds + compute;
    out[count].compute = compute;
    out[count].worker = i;
    ++count;
  }
  return count;
}

/// The initial sorted-prefix length: the scheme's provable arrival floor
/// (`min_arrivals_hint`), raised to the expected recovery threshold when
/// one is known — starting below E[K] would make geometric extension the
/// common case instead of the fallback. Wait-for-all schemes (and
/// threshold_selection = false) land on n, i.e. a plain full sort.
std::size_t start_prefix_for(const core::Scheme& scheme,
                             bool threshold_selection) {
  const std::size_t n = scheme.num_workers();
  if (!threshold_selection || n == 0) {
    return n;
  }
  std::size_t start = std::clamp<std::size_t>(scheme.min_arrivals_hint(), 1, n);
  const std::optional<double> expected = scheme.expected_recovery_threshold();
  if (expected && *expected > static_cast<double>(start)) {
    start = std::min(n, static_cast<std::size_t>(std::ceil(*expected)));
  }
  return start;
}

/// Folds one iteration into a run aggregate.
void accumulate(RunReport& run, const IterationReport& it, bool record_trace) {
  run.total_time += it.total_time;
  run.total_compute_time += it.compute_time;
  run.total_comm_time += it.comm_time;
  run.workers_heard.add(static_cast<double>(it.workers_heard));
  run.units_received.add(it.units_received);
  if (!it.recovered) {
    ++run.failures;
  }
  if (record_trace) {
    run.iterations.push_back(it);
  }
}

}  // namespace

IterationKernel::IterationKernel(const core::Scheme& scheme,
                                 const ClusterConfig& config,
                                 KernelOptions options)
    : config_(config), collector_(scheme.make_collector()) {
  const std::size_t n = scheme.num_workers();
  loads_.resize(n);
  service_seconds_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    loads_[i] = static_cast<double>(scheme.placement().worker(i).size());
    service_seconds_[i] =
        scheme.message_units(i) * config.unit_transfer_seconds;
  }
  meta_offsets_.reserve(n + 1);
  meta_offsets_.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<std::int64_t> meta = scheme.message_meta(i);
    meta_flat_.insert(meta_flat_.end(), meta.begin(), meta.end());
    meta_offsets_.push_back(meta_flat_.size());
  }
  arrivals_.resize(n);
  start_prefix_ = start_prefix_for(scheme, options.threshold_selection);
}

std::size_t IterationKernel::begin_lazy_arrivals(LatencyModel& model,
                                                 std::size_t iteration,
                                                 stats::Rng& rng) {
  count_ =
      draw_arrivals_into(arrivals_, loads_, config_, model, iteration, rng);
  const auto first = arrivals_.begin();
  lazy_sorted_ = std::min(start_prefix_, count_);
  if (lazy_sorted_ >= count_) {
    std::sort(first, first + count_, arrival_less);
    lazy_sorted_ = count_;
  } else {
    std::nth_element(first, first + lazy_sorted_, first + count_,
                     arrival_less);
    std::sort(first, first + lazy_sorted_, arrival_less);
  }
  return count_;
}

void IterationKernel::extend_sorted_to(std::size_t k) {
  // [lazy_sorted_, count_) holds exactly the arrivals ranked >=
  // lazy_sorted_, so selecting inside it extends the unique sorted order
  // (lazy_sorted_ >= 1 here: start_prefix_for never returns 0 for a
  // non-empty draw).
  const auto first = arrivals_.begin();
  while (k >= lazy_sorted_) {
    const std::size_t next = std::min(count_, lazy_sorted_ * 2);
    if (next < count_) {
      std::nth_element(first + lazy_sorted_, first + next, first + count_,
                       arrival_less);
      std::sort(first + lazy_sorted_, first + next, arrival_less);
    } else {
      std::sort(first + lazy_sorted_, first + count_, arrival_less);
    }
    lazy_sorted_ = next;
  }
}

const IterationKernel::Arrival& IterationKernel::sorted_arrival(
    std::size_t k) {
  COUPON_ASSERT(k < count_);
  extend_sorted_to(k);
  return arrivals_[k];
}

IterationReport IterationKernel::run(LatencyModel& model,
                                     std::size_t iteration, stats::Rng& rng) {
  collector_->reset();
  const std::size_t count = begin_lazy_arrivals(model, iteration, rng);

  // Ingress: the serialized master link is a FIFO — each arrival waits
  // for the link, occupies it for its service time, and the fully
  // received message is offered to the collector. Completion order equals
  // arrival-processing order (the link frees monotonically), so a linear
  // scan replaces the event heap. The scan stops at recovery — exactly
  // where the historical DES run_until() stopped — and extends the sorted
  // prefix whenever it reaches the prefix's end first (drops, BCC
  // coverage failure, a conservative hint).
  core::Collector& collector = *collector_;
  const Arrival* arrivals = arrivals_.data();
  const double* service = service_seconds_.data();
  IterationReport report;
  report.recovered = false;
  double ingress_free_at = 0.0;
  double max_compute = 0.0;
  for (std::size_t k = 0; k < count && !report.recovered; ++k) {
    if (k == lazy_sorted_) {
      extend_sorted_to(k);
    }
    const Arrival& arrival = arrivals[k];
    const double start = std::max(arrival.time, ingress_free_at);
    ingress_free_at = start + service[arrival.worker];
    collector.offer(arrival.worker, meta(arrival.worker), {});
    max_compute = std::max(max_compute, arrival.compute);
    report.recovered = collector.ready();
  }

  // Without recovery the DES drained fully: its clock ended on the last
  // ingress completion — the final busy-until — or stayed 0 when nothing
  // was ever scheduled. With recovery, the clock is the busy-until of
  // the message that flipped ready().
  report.total_time = ingress_free_at;
  report.workers_heard = collector.workers_heard();
  report.units_received = collector.units_received();
  report.compute_time = max_compute;
  report.comm_time = report.total_time - report.compute_time;
  return report;
}

RunReport simulate_run(const core::Scheme& scheme,
                       const ClusterConfig& config, const RunOptions& options,
                       stats::Rng& rng) {
  const auto model = make_latency_model(config, scheme.num_workers());
  IterationKernel kernel(scheme, config);
  RunReport run;
  if (options.record_trace) {
    run.iterations.reserve(options.iterations);
  }
  for (std::size_t t = 0; t < options.iterations; ++t) {
    accumulate(run, kernel.run(*model, t, rng), options.record_trace);
  }
  return run;
}

}  // namespace coupon::simulate
