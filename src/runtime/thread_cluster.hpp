#pragma once

/// \file thread_cluster.hpp
/// Real-thread master/worker cluster executing distributed GD.
///
/// This is the MPI-substitute execution path (DESIGN.md §2): rank 0
/// (the calling thread) is the master, ranks 1..n are worker threads.
/// Each iteration every worker computes its scheme-encoded gradient
/// message on its locally "stored" data and ships it back, with optional
/// injected straggler delays standing in for t2.micro latency variance.
///
/// The master-side iteration protocol itself (broadcast → collect →
/// failure policy → optimizer step → loss tracking) lives in the shared
/// `engine::TrainingEngine` (engine/training_engine.hpp), driven through
/// the shared `TransportProvider` over an `InProcessTransport` endpoint;
/// every worker thread runs the shared `run_worker` (runtime/worker.hpp)
/// over its own endpoint. This class only owns the fabric and the
/// threads. The simulated provider (engine/simulated_provider.hpp) runs
/// the identical protocol over simulated time, and the multi-process
/// cluster (runtime/process_cluster.hpp) runs it over real sockets.

#include <cstdint>
#include <thread>
#include <vector>

#include "comm/network.hpp"
#include "core/gradient_source.hpp"
#include "core/scheme.hpp"
#include "engine/training_engine.hpp"
#include "opt/optimizer.hpp"
#include "runtime/worker.hpp"

namespace coupon::runtime {

/// A master plus `n` worker threads bound to one scheme and one dataset.
///
/// The scheme, gradient source, and network outlive every iteration; the
/// class is single-use-at-a-time: call `train` from one thread.
class ThreadCluster {
 public:
  /// Spawns `scheme.num_workers()` worker threads, each running
  /// `run_worker` over its own endpoint. `source` must remain valid for
  /// the cluster's lifetime.
  ThreadCluster(const core::Scheme& scheme,
                const core::UnitGradientSource& source,
                std::uint64_t straggler_seed = 42);

  /// Joins all workers.
  ~ThreadCluster();

  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;

  /// Runs synchronous distributed GD for `options.iterations` iterations,
  /// driving `optimizer` (master-side). On a coverage failure (possible
  /// for BCC with small n) the iteration is resolved per
  /// `options.on_failure`. `TrainReport::elapsed_seconds` is wall-clock.
  engine::TrainReport train(opt::IterativeOptimizer& optimizer,
                            const TrainOptions& options);

 private:
  const core::Scheme& scheme_;
  const core::UnitGradientSource& source_;
  comm::InProcNetwork network_;
  std::vector<std::thread> threads_;
  StragglerInjection straggler_;  // read by workers during train()
};

}  // namespace coupon::runtime
