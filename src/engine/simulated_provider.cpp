#include "engine/simulated_provider.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace coupon::engine {

SimulatedProvider::SimulatedProvider(const core::Scheme& scheme,
                                     const core::UnitGradientSource& source,
                                     simulate::ClusterConfig cluster,
                                     stats::Rng& rng, ProviderOptions options)
    : scheme_(scheme),
      source_(source),
      cluster_(std::move(cluster)),
      rng_(rng),
      options_(options),
      cache_(source),
      model_(simulate::make_latency_model(cluster_, scheme.num_workers())),
      kernel_(scheme, cluster_) {
  COUPON_ASSERT(source.num_units() == scheme.num_units());
  if (options_.cache_encode) {
    group_msgs_.resize(scheme.num_encode_groups());
    group_valid_.assign(scheme.num_encode_groups(), 0);
  }
}

void SimulatedProvider::begin_iteration(std::size_t iteration,
                                        std::span<const double> w) {
  w_ = w;
  // Lazy arrivals: the engine stops consuming at recovery, so only the
  // kernel's selection prefix is sorted up front (bit-identical order —
  // see IterationKernel::sorted_arrival).
  arrival_count_ = kernel_.begin_lazy_arrivals(*model_, iteration, rng_);
  cursor_ = 0;
  ingress_free_at_ = 0.0;
  max_compute_ = 0.0;
  any_consumed_ = false;
  cache_.begin_iteration();
  std::fill(group_valid_.begin(), group_valid_.end(),
            static_cast<std::uint8_t>(0));
}

bool SimulatedProvider::next_arrival(ArrivalView& out) {
  if (cursor_ == arrival_count_) {
    return false;
  }
  const auto& arrival = kernel_.sorted_arrival(cursor_++);

  // The kernel's ingress recurrence: the message waits for the serialized
  // link, then occupies it for its service time. The busy-until after the
  // last consumed message is the iteration's completion time.
  const double start = std::max(arrival.time, ingress_free_at_);
  ingress_free_at_ = start + kernel_.service_seconds(arrival.worker);
  max_compute_ = std::max(max_compute_, arrival.compute);
  any_consumed_ = true;

  // The real worker computation, evaluated only for messages the master
  // actually sits through — exactly the work a physical cluster performs
  // before the collector becomes ready.
  out.worker = arrival.worker;
  if (!options_.cache_encode) {
    message_ = scheme_.encode(arrival.worker, source_, w_);
    out.meta = message_.meta;
    out.payload = message_.payload;
    return true;
  }
  if (const auto group = scheme_.encode_group(arrival.worker)) {
    // All workers of this group send bitwise-identical messages: encode
    // the first one this iteration into the group's persistent slot and
    // replay it for the rest.
    comm::Message& slot = group_msgs_[*group];
    if (!group_valid_[*group]) {
      scheme_.encode_into(arrival.worker, cache_, w_, slot);
      group_valid_[*group] = 1;
    }
    out.meta = slot.meta;
    out.payload = slot.payload;
    return true;
  }
  scheme_.encode_into(arrival.worker, cache_, w_, message_);
  out.meta = message_.meta;
  out.payload = message_.payload;
  return true;
}

IterationTiming SimulatedProvider::end_iteration() {
  IterationTiming timing;
  // Mirrors IterationKernel::run's accounting: completion is the last
  // ingress busy-until (0.0 when every message was dropped and nothing
  // arrived); computation is the max compute among consumed arrivals,
  // communication the remainder.
  timing.total_seconds = any_consumed_ ? ingress_free_at_ : 0.0;
  timing.compute_seconds = max_compute_;
  return timing;
}

}  // namespace coupon::engine
