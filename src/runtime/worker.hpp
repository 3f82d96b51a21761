#pragma once

/// \file worker.hpp
/// What the two live runtimes share: the run options both clusters take
/// and the one worker routine both run (DESIGN.md §9).
///
/// In the paper's system every worker runs the same routine: compute the
/// coded partial gradient on its local data and send it to the master.
/// `run_worker` is that routine, written against `comm::Transport` only —
/// each `ThreadCluster` thread runs it over its own `InProcessTransport`
/// endpoint, each `ProcessCluster` child over its `TcpTransport` stream —
/// so the per-worker delay seed, the straggler sleep and the crash drill
/// exist once.

#include <chrono>
#include <cstdint>
#include <optional>

#include "comm/transport.hpp"
#include "core/gradient_source.hpp"
#include "core/scheme.hpp"
#include "engine/training_engine.hpp"
#include "runtime/elasticity.hpp"
#include "runtime/straggler.hpp"

namespace coupon::runtime {

using engine::FailurePolicy;

/// Deterministic fault injection: the named worker raises SIGKILL upon
/// receiving the broadcast of `iteration` — a real mid-iteration crash
/// (the master sees socket EOF while collecting), used by the recovery
/// tests and the smoke drill. Only worker processes can honour it.
struct CrashPlan {
  std::size_t worker = 0;
  std::size_t iteration = 0;
};

/// Training-run parameters: the engine's master-side options (inherited
/// verbatim — iterations, on_failure, loss tracking) plus the live
/// runtimes' worker-delay injection and join/leave schedule.
struct TrainOptions : engine::TrainOptions {
  StragglerInjection straggler;
  /// Planned worker absences: the master skips broadcasting to a worker
  /// in its leave window; the idle worker simply blocks on recv.
  ElasticityPlan elasticity;
};

/// How a worker loop ended.
enum class WorkerExit {
  kShutdown,           ///< shutdown tag, or the master's endpoint is gone
  kProtocolViolation,  ///< a message that is neither broadcast nor shutdown
};

/// The worker routine of both live runtimes. Serves worker
/// `endpoint.rank() - 1`: for every model broadcast it encodes the
/// scheme's message on the worker's units at the broadcast weights,
/// sleeps the injected straggler delay when `straggler.enabled`, and
/// replies with a kTagGradient message carrying the broadcast's
/// iteration. The delay stream is the worker-th draw of
/// `Rng(straggler_seed)`, so a (seed, worker) pair names the same delays
/// on both runtimes. `straggler` is read on every broadcast, so the
/// caller may update it between runs. When `crash` names this worker,
/// the process SIGKILLs itself on receiving that iteration's broadcast —
/// pass it only from a worker process.
WorkerExit run_worker(comm::Transport& endpoint, const core::Scheme& scheme,
                      const core::UnitGradientSource& source,
                      std::uint64_t straggler_seed,
                      const StragglerInjection& straggler,
                      const std::optional<CrashPlan>& crash);

}  // namespace coupon::runtime
