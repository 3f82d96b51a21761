#include "runtime/worker.hpp"

#include <signal.h>
#include <unistd.h>

#include <thread>

#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace coupon::runtime {

WorkerExit run_worker(comm::Transport& endpoint, const core::Scheme& scheme,
                      const core::UnitGradientSource& source,
                      std::uint64_t straggler_seed,
                      const StragglerInjection& straggler,
                      const std::optional<CrashPlan>& crash) {
  const std::size_t worker = endpoint.rank() - 1;
  stats::Rng seeder(straggler_seed);
  for (std::size_t k = 0; k < worker; ++k) {
    seeder.next_u64();
  }
  stats::Rng rng(seeder.next_u64());
  const auto load =
      static_cast<double>(scheme.placement().worker(worker).size());

  // Hoisted reply buffer: encode_into reuses its meta/payload capacity
  // across iterations (the move-send empties but the next assign refills
  // without growing past the first iteration's high-water mark).
  comm::Message reply;
  for (;;) {
    comm::RecvEvent event = endpoint.recv();
    if (event.status != comm::RecvStatus::kMessage ||
        event.message.tag == comm::kTagShutdown) {
      return WorkerExit::kShutdown;  // orderly, or the master is gone
    }
    if (event.message.tag != comm::kTagModelBroadcast) {
      return WorkerExit::kProtocolViolation;
    }
    if (crash && crash->worker == worker &&
        event.message.iteration ==
            static_cast<std::int64_t>(crash->iteration)) {
      // The crash drill: a real SIGKILL mid-iteration — the broadcast
      // was consumed, the reply will never be sent, the kernel closes
      // the socket.
      ::kill(::getpid(), SIGKILL);
    }

    scheme.encode_into(worker, source, event.message.payload, reply);
    reply.tag = comm::kTagGradient;
    reply.dest = 0;
    reply.iteration = event.message.iteration;

    if (straggler.enabled && load > 0.0) {
      const auto dist = stats::ShiftedExponential::for_load(
          straggler.shift_ms_per_unit, straggler.straggle, load);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(dist.sample(rng)));
    }
    endpoint.send(std::move(reply));
  }
}

}  // namespace coupon::runtime
