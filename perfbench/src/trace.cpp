#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <limits>
#include <mutex>

namespace perfbench::trace {

namespace {

constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kSpans = static_cast<std::size_t>(Span::kCount);
constexpr std::size_t kCounters = static_cast<std::size_t>(Counter::kCount);

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint32_t run = 0;
  Span name = Span::kCount;
};

/// One thread's spans, aggregates and counters. Preallocated on the
/// thread's first span; stored spans beyond capacity are dropped (the
/// aggregates stay exact).
struct Recorder {
  struct Open {
    Span name = Span::kCount;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::uint32_t index = kNoParent;
  };

  explicit Recorder(std::size_t capacity) { spans.reserve(capacity); stack.reserve(64); }

  std::array<Aggregate, kSpans> aggregates{};
  std::array<std::uint64_t, kCounters> counters{};
  std::vector<Open> stack;
  std::vector<SpanRecord> spans;
  std::size_t dropped = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_run{0};
std::mutex g_mutex;  // guards g_recorders
std::vector<std::unique_ptr<Recorder>> g_recorders;
thread_local Recorder* t_recorder = nullptr;

Recorder& local() {
  if (t_recorder == nullptr) {
    const std::lock_guard<std::mutex> lock(g_mutex);
    // The first recording thread is the benchmark's main thread and gets
    // the large span store; runtime worker threads get small ones.
    const std::size_t capacity = g_recorders.empty() ? (1u << 18) : (1u << 16);
    g_recorders.push_back(std::make_unique<Recorder>(capacity));
    t_recorder = g_recorders.back().get();
  }
  return *t_recorder;
}

}  // namespace

std::string_view span_name(Span span) {
  switch (span) {
    case Span::kSchemeBuild: return "core.scheme_build";
    case Span::kKernelBuild: return "simulate.kernel_build";
    case Span::kKernelRun: return "simulate.kernel_run";
    case Span::kDrawSelect: return "simulate.draw_select";
    case Span::kDataGenerate: return "data.generate";
    case Span::kClusterBuild: return "runtime.cluster_build";
    case Span::kTrain: return "runtime.train";
    case Span::kTrainStep: return "engine.train_step";
    case Span::kProviderBegin: return "engine.provider_begin";
    case Span::kProviderNext: return "engine.provider_next";
    case Span::kProviderEnd: return "engine.provider_end";
    case Span::kEncode: return "core.encode";
    case Span::kGradient: return "engine.gradient";
    case Span::kOffer: return "core.offer";
    case Span::kDecode: return "core.decode";
    case Span::kApply: return "opt.apply_gradient";
    case Span::kCount: break;
  }
  return "unknown";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_enabled(bool on) {
  if (on) {
    local();  // the calling (main) thread registers first
  }
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_run(std::uint32_t run) { g_run.store(run, std::memory_order_relaxed); }

void reset() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& recorder : g_recorders) {
    recorder->aggregates = {};
    recorder->counters = {};
    recorder->stack.clear();
    recorder->spans.clear();
    recorder->dropped = 0;
  }
}

void open(Span span) {
  Recorder& r = local();
  Recorder::Open entry;
  entry.name = span;
  entry.start_ns = now_ns();
  if (r.spans.size() < r.spans.capacity()) {
    entry.index = static_cast<std::uint32_t>(r.spans.size());
    SpanRecord record;
    record.start_ns = entry.start_ns;
    record.parent = r.stack.empty() ? kNoParent : r.stack.back().index;
    record.run = g_run.load(std::memory_order_relaxed);
    record.name = span;
    r.spans.push_back(record);
  } else {
    ++r.dropped;
  }
  r.stack.push_back(entry);
}

void close() {
  Recorder& r = local();
  const Recorder::Open entry = r.stack.back();
  r.stack.pop_back();
  const std::int64_t end = now_ns();
  const std::int64_t duration = end - entry.start_ns;
  Aggregate& agg = r.aggregates[static_cast<std::size_t>(entry.name)];
  ++agg.count;
  agg.total_ns += duration;
  agg.child_ns += entry.child_ns;
  if (!r.stack.empty()) {
    r.stack.back().child_ns += duration;
  }
  if (entry.index != kNoParent) {
    r.spans[entry.index].end_ns = end;
  }
}

void count(Counter c, std::uint64_t n) {
  if (enabled()) {
    local().counters[static_cast<std::size_t>(c)] += n;
  }
}

namespace {

Aggregate sum_aggregates(Span span, bool include_caller, bool include_others) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  Aggregate out;
  for (const auto& recorder : g_recorders) {
    const bool is_caller = recorder.get() == t_recorder;
    if ((is_caller && !include_caller) || (!is_caller && !include_others)) {
      continue;
    }
    const Aggregate& a = recorder->aggregates[static_cast<std::size_t>(span)];
    out.count += a.count;
    out.total_ns += a.total_ns;
    out.child_ns += a.child_ns;
  }
  return out;
}

}  // namespace

Aggregate aggregate(Span span, bool main_only) {
  return sum_aggregates(span, true, !main_only);
}

Aggregate worker_aggregate(Span span) { return sum_aggregates(span, false, true); }

std::uint64_t counter(Counter c) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::uint64_t total = 0;
  for (const auto& recorder : g_recorders) {
    total += recorder->counters[static_cast<std::size_t>(c)];
  }
  return total;
}

std::pair<std::size_t, std::size_t> write_spans(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::ofstream out(path);
  out << "thread,name,start_ns,end_ns,parent,run\n";
  std::size_t written = 0;
  std::size_t dropped = 0;
  for (std::size_t t = 0; t < g_recorders.size(); ++t) {
    const Recorder& r = *g_recorders[t];
    dropped += r.dropped;
    for (const SpanRecord& s : r.spans) {
      out << t << ',' << span_name(s.name) << ',' << s.start_ns << ','
          << s.end_ns << ',';
      if (s.parent == kNoParent) {
        out << "-1";
      } else {
        out << s.parent;
      }
      out << ',' << s.run << '\n';
      ++written;
    }
  }
  return {written, dropped};
}

// --- decorators ----------------------------------------------------------

bool TracedCollector::offer(std::size_t worker,
                            std::span<const std::int64_t> meta,
                            std::span<const double> payload) {
  const Scope scope(Span::kOffer);
  const std::size_t heard = inner_->workers_heard();
  const bool kept = inner_->offer(worker, meta, payload);
  if (inner_->workers_heard() != heard) {
    note_offer(inner_->units_received() - units_received());
  }
  return kept;
}

void TracedCollector::decode_sum(std::span<double> grad_sum) const {
  const Scope scope(Span::kDecode);
  inner_->decode_sum(grad_sum);
}

std::size_t TracedCollector::decode_partial_sum(
    std::span<double> grad_sum) const {
  const Scope scope(Span::kDecode);
  return inner_->decode_partial_sum(grad_sum);
}

coupon::comm::Message TracedScheme::encode(
    std::size_t worker, const coupon::core::UnitGradientSource& source,
    std::span<const double> w) const {
  const Scope scope(Span::kEncode);
  count(Counter::kEncodes);
  return inner_.encode(worker, source, w);
}

void TracedScheme::encode_into(std::size_t worker,
                               const coupon::core::UnitGradientSource& source,
                               std::span<const double> w,
                               coupon::comm::Message& out) const {
  const Scope scope(Span::kEncode);
  count(Counter::kEncodes);
  inner_.encode_into(worker, source, w, out);
}

void TracedSource::unit_gradient(std::size_t unit, std::span<const double> w,
                                 std::span<double> out) const {
  const Scope scope(Span::kGradient);
  count(Counter::kGradUnits);
  inner_.unit_gradient(unit, w, out);
}

void TracedSource::accumulate_unit_gradient(std::size_t unit,
                                            std::span<const double> w,
                                            std::span<double> out) const {
  const Scope scope(Span::kGradient);
  count(Counter::kGradUnits);
  inner_.accumulate_unit_gradient(unit, w, out);
}

void TracedSource::accumulate_units_gradient(
    std::span<const std::size_t> units, std::span<const double> w,
    std::span<double> out) const {
  const Scope scope(Span::kGradient);
  count(Counter::kGradUnits, units.size());
  inner_.accumulate_units_gradient(units, w, out);
}

std::span<const double> TracedSource::unit_gradient_view(
    std::size_t unit, std::span<const double> w,
    std::span<double> scratch) const {
  const Scope scope(Span::kGradient);
  count(Counter::kGradUnits);
  return inner_.unit_gradient_view(unit, w, scratch);
}

std::span<const double> StampedOptimizer::query_point() const {
  if (first_query_ns_ < 0) {
    first_query_ns_ = now_ns();
  }
  return inner_.query_point();
}

void StampedOptimizer::apply_gradient(std::span<const double> grad) {
  {
    const Scope scope(Span::kApply);
    inner_.apply_gradient(grad);
  }
  applies_ns_.push_back(now_ns());
}

void TracedProvider::begin_iteration(std::size_t iteration,
                                     std::span<const double> w) {
  const Scope scope(Span::kProviderBegin);
  inner_.begin_iteration(iteration, w);
}

bool TracedProvider::next_arrival(coupon::engine::ArrivalView& out) {
  const Scope scope(Span::kProviderNext);
  const bool more = inner_.next_arrival(out);
  if (more) {
    count(Counter::kArrivals);
  }
  return more;
}

coupon::engine::IterationTiming TracedProvider::end_iteration() {
  const Scope scope(Span::kProviderEnd);
  return inner_.end_iteration();
}

}  // namespace perfbench::trace
