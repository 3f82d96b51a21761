#include "runtime/thread_cluster.hpp"

#include <chrono>

#include "comm/transport.hpp"
#include "runtime/transport_provider.hpp"
#include "util/assert.hpp"

namespace coupon::runtime {

namespace {

constexpr std::size_t kMasterRank = 0;

}  // namespace

ThreadCluster::ThreadCluster(const core::Scheme& scheme,
                             const core::UnitGradientSource& source,
                             std::uint64_t straggler_seed)
    : scheme_(scheme),
      source_(source),
      network_(scheme.num_workers() + 1) {
  COUPON_ASSERT(source.num_units() == scheme.num_units());
  threads_.reserve(scheme.num_workers());
  for (std::size_t i = 0; i < scheme.num_workers(); ++i) {
    threads_.emplace_back([this, i, straggler_seed] {
      comm::InProcessTransport endpoint(network_, i + 1);
      const WorkerExit exit = run_worker(endpoint, scheme_, source_,
                                         straggler_seed, straggler_,
                                         /*crash=*/std::nullopt);
      COUPON_ASSERT_MSG(exit == WorkerExit::kShutdown,
                        "worker " << i << " received a non-broadcast message");
    });
  }
}

ThreadCluster::~ThreadCluster() {
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    comm::Message bye;
    bye.source = kMasterRank;
    bye.dest = static_cast<std::int32_t>(i + 1);
    bye.tag = comm::kTagShutdown;
    network_.send(std::move(bye));
  }
  for (auto& t : threads_) {
    t.join();
  }
  network_.close_all();
}

engine::TrainReport ThreadCluster::train(opt::IterativeOptimizer& optimizer,
                                         const TrainOptions& options) {
  straggler_ = options.straggler;

  // The shared master protocol over an in-process endpoint: identical
  // broadcast/collect/stale-skip semantics to the socket runtime, with
  // no worker_timeout — in-process threads always reply.
  comm::InProcessTransport master(network_, kMasterRank);
  TransportProvider provider(
      master, scheme_, source_.dim(),
      {.worker_timeout = std::chrono::milliseconds(0),
       .elasticity = options.elasticity});
  engine::TrainingEngine protocol(scheme_, source_, provider);
  return protocol.train(optimizer, options);  // the engine::TrainOptions base
}

}  // namespace coupon::runtime
