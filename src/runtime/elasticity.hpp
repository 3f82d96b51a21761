#pragma once

/// \file elasticity.hpp
/// Worker join/leave schedules for the live runtimes (DESIGN.md §9).
///
/// Elasticity is a master-side concept: during a worker's absence window
/// the master simply does not broadcast to it, so the iteration runs on
/// the remaining workers and the scheme's redundancy (or the failure
/// policy) absorbs the gap. Workers are stateless between iterations —
/// the model always travels with the broadcast — so a rejoining worker
/// needs no catch-up protocol: the next broadcast re-enlists it.

#include <cstddef>
#include <limits>
#include <vector>

namespace coupon::runtime {

/// One worker's planned absence: it leaves before `leave_iteration` runs
/// and is back for `rejoin_iteration` (half-open window; the default
/// rejoin means it never returns).
struct ElasticityWindow {
  std::size_t worker = 0;
  std::size_t leave_iteration = 0;
  std::size_t rejoin_iteration = std::numeric_limits<std::size_t>::max();
};

/// A full join/leave schedule; empty means every worker serves every
/// iteration.
struct ElasticityPlan {
  std::vector<ElasticityWindow> windows;

  /// True when `worker` participates in `iteration`.
  bool active(std::size_t worker, std::size_t iteration) const {
    for (const auto& window : windows) {
      if (window.worker == worker && iteration >= window.leave_iteration &&
          iteration < window.rejoin_iteration) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace coupon::runtime
