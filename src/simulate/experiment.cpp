#include "simulate/experiment.hpp"

#include <ostream>

#include "util/csv.hpp"
#include "util/table.hpp"

namespace coupon::simulate {

ClusterConfig ec2_cluster() {
  ClusterConfig c;
  c.compute_shift = 1.0e-3;        // 1 ms deterministic compute per unit
  c.compute_straggle = 950.0;      // tail scale load/mu ~ 10.5 ms at r=10
  c.unit_transfer_seconds = 3.2e-3;  // 3.2 ms to receive one gradient
  c.broadcast_seconds = 0.0;
  return c;
}

const std::vector<std::string>& iteration_csv_header() {
  static const std::vector<std::string> header = {
      "iteration",     "total_time",     "compute_time", "comm_time",
      "workers_heard", "units_received", "recovered"};
  return header;
}

std::vector<std::string> iteration_csv_fields(std::size_t index,
                                              const IterationReport& it) {
  return {std::to_string(index),          format_double(it.total_time, 9),
          format_double(it.compute_time, 9), format_double(it.comm_time, 9),
          std::to_string(it.workers_heard),
          format_double(it.units_received, 3), it.recovered ? "1" : "0"};
}

void write_iteration_csv(std::ostream& os, const RunReport& run) {
  CsvWriter csv(os);
  csv.row(iteration_csv_header());
  for (std::size_t t = 0; t < run.iterations.size(); ++t) {
    csv.row(iteration_csv_fields(t, run.iterations[t]));
  }
}

}  // namespace coupon::simulate
