#pragma once

/// \file trace.hpp
/// Span recording for the traced run, and forwarding decorators over the
/// program's public virtual seams that open a span around each call.
///
/// Every thread records into its own preallocated `Recorder` (spans plus
/// per-name aggregates and counters), so worker threads of the threaded
/// runtime record without locks. A span's self time is its duration minus
/// the time its child spans cover; the aggregates track both online, and
/// the stored span list (name, start, end, parent, run id) is written out
/// when the run ends. Recording is off unless `set_enabled(true)`.
///
/// The decorators forward every virtual of the wrapped object, so the
/// traced run takes the same code paths and produces bit-identical
/// outputs (the traced run asserts this).

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/gradient_source.hpp"
#include "core/scheme.hpp"
#include "engine/training_engine.hpp"
#include "opt/optimizer.hpp"

namespace perfbench::trace {

enum class Span : std::uint16_t {
  kSchemeBuild,
  kKernelBuild,
  kKernelRun,
  kDrawSelect,
  kDataGenerate,
  kClusterBuild,
  kTrain,
  kTrainStep,
  kProviderBegin,
  kProviderNext,
  kProviderEnd,
  kEncode,
  kGradient,
  kOffer,
  kDecode,
  kApply,
  kCount
};

enum class Counter : std::uint16_t {
  kEncodes,
  kArrivals,
  kGradUnits,
  kCount
};

std::string_view span_name(Span span);

struct Aggregate {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t child_ns = 0;  ///< time covered by direct child spans

  std::int64_t self_ns() const { return total_ns - child_ns; }
};

/// Turns recording on or off (off by default). Call only while no
/// recording thread is running.
void set_enabled(bool enabled);
bool enabled();

/// Tags subsequently opened spans with `run` (one id per cell/episode).
void set_run(std::uint32_t run);

/// Clears every thread's aggregates, counters and stored spans. Call only
/// while no other recording thread is running.
void reset();

/// Sums over all threads (`main_only`: the calling thread's recorder).
Aggregate aggregate(Span span, bool main_only = false);
Aggregate worker_aggregate(Span span);  ///< all threads but the caller's
std::uint64_t counter(Counter c);

/// Writes every stored span as CSV (thread,name,start_ns,end_ns,parent,run).
/// Returns the number of spans written and spans dropped for capacity.
std::pair<std::size_t, std::size_t> write_spans(const std::string& path);

std::int64_t now_ns();

void open(Span span);
void close();
void count(Counter c, std::uint64_t n = 1);

/// RAII span; a no-op when recording is off.
class Scope {
 public:
  explicit Scope(Span span) : active_(enabled()) {
    if (active_) {
      open(span);
    }
  }
  ~Scope() {
    if (active_) {
      close();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_;
};

// --- decorators ----------------------------------------------------------

/// Times offer/decode and forwards every Collector virtual. The base
/// class's |W| and L are mirrored from the inner collector after each
/// offer, so callers reading workers_heard()/units_received() see the
/// inner collector's values.
class TracedCollector final : public coupon::core::Collector {
 public:
  explicit TracedCollector(std::unique_ptr<coupon::core::Collector> inner)
      : inner_(std::move(inner)) {}

  bool offer(std::size_t worker, std::span<const std::int64_t> meta,
             std::span<const double> payload) override;
  bool ready() const override { return inner_->ready(); }
  void decode_sum(std::span<double> grad_sum) const override;
  bool supports_partial_decode() const override {
    return inner_->supports_partial_decode();
  }
  std::size_t decode_partial_sum(std::span<double> grad_sum) const override;

 protected:
  void do_reset() override { inner_->reset(); }

 private:
  std::unique_ptr<coupon::core::Collector> inner_;
};

/// Times encodes and wraps collectors; forwards every Scheme virtual.
class TracedScheme final : public coupon::core::Scheme {
 public:
  explicit TracedScheme(const coupon::core::Scheme& inner)
      : Scheme(inner.placement()), inner_(inner) {}

  std::string_view registry_name() const override {
    return inner_.registry_name();
  }
  std::string_view name() const override { return inner_.name(); }
  coupon::comm::Message encode(std::size_t worker,
                               const coupon::core::UnitGradientSource& source,
                               std::span<const double> w) const override;
  void encode_into(std::size_t worker,
                   const coupon::core::UnitGradientSource& source,
                   std::span<const double> w,
                   coupon::comm::Message& out) const override;
  std::optional<std::size_t> encode_group(std::size_t worker) const override {
    return inner_.encode_group(worker);
  }
  std::size_t num_encode_groups() const override {
    return inner_.num_encode_groups();
  }
  double message_units(std::size_t worker) const override {
    return inner_.message_units(worker);
  }
  std::vector<std::int64_t> message_meta(std::size_t worker) const override {
    return inner_.message_meta(worker);
  }
  std::unique_ptr<coupon::core::Collector> make_collector() const override {
    return std::make_unique<TracedCollector>(inner_.make_collector());
  }
  std::optional<double> expected_recovery_threshold() const override {
    return inner_.expected_recovery_threshold();
  }
  std::size_t min_arrivals_hint() const override {
    return inner_.min_arrivals_hint();
  }

 private:
  const coupon::core::Scheme& inner_;
};

/// Times and counts unit-gradient calls; forwards every source virtual.
class TracedSource final : public coupon::core::UnitGradientSource {
 public:
  explicit TracedSource(const coupon::core::UnitGradientSource& inner)
      : inner_(inner) {}

  std::size_t num_units() const override { return inner_.num_units(); }
  std::size_t dim() const override { return inner_.dim(); }
  std::size_t num_examples() const override { return inner_.num_examples(); }
  void unit_gradient(std::size_t unit, std::span<const double> w,
                     std::span<double> out) const override;
  void accumulate_unit_gradient(std::size_t unit, std::span<const double> w,
                                std::span<double> out) const override;
  void accumulate_units_gradient(std::span<const std::size_t> units,
                                 std::span<const double> w,
                                 std::span<double> out) const override;
  std::span<const double> unit_gradient_view(
      std::size_t unit, std::span<const double> w,
      std::span<double> scratch) const override;

 private:
  const coupon::core::UnitGradientSource& inner_;
};

/// Forwards every optimizer virtual; stamps the first query_point() call
/// and every apply_gradient() into preallocated storage, and (when
/// recording) opens an apply span. Used untraced too: the stamps are how
/// live workloads see per-iteration latency from outside the runtime.
class StampedOptimizer final : public coupon::opt::IterativeOptimizer {
 public:
  StampedOptimizer(coupon::opt::IterativeOptimizer& inner,
                   std::size_t expected_iterations)
      : inner_(inner) {
    applies_ns_.reserve(expected_iterations);
  }

  std::span<const double> query_point() const override;
  void apply_gradient(std::span<const double> grad) override;
  std::span<const double> weights() const override { return inner_.weights(); }
  std::size_t iteration() const override { return inner_.iteration(); }

  /// now_ns() of the first query_point() call (the first iteration's
  /// broadcast), or -1.
  std::int64_t first_query_ns() const { return first_query_ns_; }
  const std::vector<std::int64_t>& applies_ns() const { return applies_ns_; }

 private:
  coupon::opt::IterativeOptimizer& inner_;
  mutable std::int64_t first_query_ns_ = -1;
  std::vector<std::int64_t> applies_ns_;
};

/// Times the provider's begin/next/end and counts arrivals.
class TracedProvider final : public coupon::engine::IterationProvider {
 public:
  explicit TracedProvider(coupon::engine::IterationProvider& inner)
      : inner_(inner) {}

  void begin_iteration(std::size_t iteration,
                       std::span<const double> w) override;
  bool next_arrival(coupon::engine::ArrivalView& out) override;
  coupon::engine::IterationTiming end_iteration() override;

 private:
  coupon::engine::IterationProvider& inner_;
};

}  // namespace perfbench::trace
