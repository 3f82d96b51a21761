#include "runtime/transport_provider.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "util/assert.hpp"

namespace coupon::runtime {

TransportProvider::TransportProvider(comm::Transport& master,
                                     const core::Scheme& scheme,
                                     std::size_t dim, Options options)
    : master_(master),
      num_workers_(scheme.num_workers()),
      options_(std::move(options)),
      alive_(num_workers_, 1),
      expected_(num_workers_, 0),
      replied_(num_workers_, 0) {
  COUPON_ASSERT(master.rank() == 0);
  COUPON_ASSERT(master.num_ranks() == num_workers_ + 1);
  meta_offsets_.reserve(num_workers_ + 1);
  meta_offsets_.push_back(0);
  payload_size_.reserve(num_workers_);
  for (std::size_t w = 0; w < num_workers_; ++w) {
    const std::vector<std::int64_t> meta = scheme.message_meta(w);
    meta_flat_.insert(meta_flat_.end(), meta.begin(), meta.end());
    meta_offsets_.push_back(meta_flat_.size());
    payload_size_.push_back(static_cast<std::size_t>(
        std::lround(scheme.message_units(w) * static_cast<double>(dim))));
  }
}

void TransportProvider::begin_iteration(std::size_t iteration,
                                        std::span<const double> w) {
  iteration_ = static_cast<std::int64_t>(iteration);
  std::fill(expected_.begin(), expected_.end(), 0);
  std::fill(replied_.begin(), replied_.end(), 0);
  outstanding_ = 0;
  for (std::size_t i = 0; i < num_workers_; ++i) {
    if (alive_[i] == 0 || !options_.elasticity.active(i, iteration)) {
      continue;  // dead or in a planned absence window: no broadcast
    }
    comm::Message broadcast;
    broadcast.dest = static_cast<std::int32_t>(i + 1);
    broadcast.tag = comm::kTagModelBroadcast;
    broadcast.iteration = iteration_;
    broadcast.payload.assign(w.begin(), w.end());
    if (!master_.send(std::move(broadcast))) {
      // The pipe broke before the reader noticed the EOF: same death.
      alive_[i] = 0;
      ++workers_lost_;
      continue;
    }
    expected_[i] = 1;
    ++outstanding_;
  }
}

void TransportProvider::mark_dead(std::size_t worker) {
  COUPON_ASSERT(worker < num_workers_);
  if (alive_[worker] == 0) {
    return;  // duplicate EOF (send failure already counted it)
  }
  alive_[worker] = 0;
  ++workers_lost_;
  if (expected_[worker] != 0 && replied_[worker] == 0) {
    COUPON_ASSERT(outstanding_ > 0);
    --outstanding_;  // this reply will never come
  }
}

bool TransportProvider::fits_scheme(std::size_t worker,
                                    const comm::Message& message) const {
  const std::span<const std::int64_t> meta(
      meta_flat_.data() + meta_offsets_[worker],
      meta_offsets_[worker + 1] - meta_offsets_[worker]);
  return message.payload.size() == payload_size_[worker] &&
         std::ranges::equal(message.meta, meta);
}

bool TransportProvider::next_arrival(engine::ArrivalView& out) {
  while (outstanding_ > 0) {
    comm::RecvEvent event =
        options_.worker_timeout.count() > 0
            ? master_.recv_for(options_.worker_timeout)
            : master_.recv();
    switch (event.status) {
      case comm::RecvStatus::kMessage: {
        // Key the reply by the stream it arrived on, never by the frame's
        // own (worker-written) source field.
        const std::size_t worker = event.peer - 1;
        if (worker >= num_workers_ || alive_[worker] == 0) {
          continue;  // no such worker, or one already given up on
        }
        if (event.message.tag != comm::kTagGradient ||
            event.message.source != static_cast<std::int32_t>(event.peer) ||
            !fits_scheme(worker, event.message)) {
          mark_dead(worker);  // a worker that breaks protocol is lost
          continue;
        }
        if (event.message.iteration != iteration_) {
          continue;  // stale reply from an iteration the master left early
        }
        if (replied_[worker] != 0) {
          continue;  // duplicate (cannot happen on a healthy stream)
        }
        replied_[worker] = 1;
        if (expected_[worker] != 0) {
          --outstanding_;
        }
        message_ = std::move(event.message);
        out.worker = worker;
        out.meta = message_.meta;
        out.payload = message_.payload;
        return true;
      }
      case comm::RecvStatus::kPeerClosed:
        mark_dead(event.peer - 1);
        continue;
      case comm::RecvStatus::kTimeout:
        // No arrival for a full worker_timeout: abandon the iteration's
        // stragglers (their late replies will be skipped as stale) and
        // let the engine's FailurePolicy resolve the shortfall.
        ++timed_out_iterations_;
        return false;
      case comm::RecvStatus::kClosed:
        // Our own endpoint is gone — nothing more will ever arrive.
        return false;
    }
  }
  return false;
}

void TransportProvider::await_death(std::size_t worker) {
  COUPON_ASSERT(worker < num_workers_);
  while (alive_[worker] != 0) {
    comm::RecvEvent event =
        options_.worker_timeout.count() > 0
            ? master_.recv_for(options_.worker_timeout)
            : master_.recv();
    if (event.status == comm::RecvStatus::kPeerClosed) {
      mark_dead(event.peer - 1);
    } else if (event.status != comm::RecvStatus::kMessage) {
      return;
    }
  }
}

engine::IterationTiming TransportProvider::end_iteration() {
  // Wall-clock phases are not separable on a live cluster: report the
  // iteration total only (compute_seconds = 0 by convention). The delta
  // since the previous end_iteration keeps master-side work (decode,
  // optimizer step, loss evaluation) on the clock, exactly as the
  // threaded provider always measured it.
  const double now = timer_.seconds();
  const double total = now - last_mark_;
  last_mark_ = now;
  return {.total_seconds = total, .compute_seconds = 0.0};
}

}  // namespace coupon::runtime
