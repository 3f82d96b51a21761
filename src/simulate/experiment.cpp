#include "simulate/experiment.hpp"

namespace coupon::simulate {

ClusterConfig ec2_cluster() {
  ClusterConfig c;
  c.compute_shift = 1.0e-3;        // 1 ms deterministic compute per unit
  c.compute_straggle = 950.0;      // tail scale load/mu ~ 10.5 ms at r=10
  c.unit_transfer_seconds = 3.2e-3;  // 3.2 ms to receive one gradient
  c.broadcast_seconds = 0.0;
  return c;
}

}  // namespace coupon::simulate
