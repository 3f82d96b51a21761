// Ablation: sensitivity of the Fig. 4 conclusions to the master ingress
// bandwidth (design choice #1 of DESIGN.md §5). The serialized master
// link is what makes total time proportional to the recovery threshold;
// this sweep scales the per-gradient transfer time up and down and shows
// when the ranking (BCC < CR < uncoded) and the speedup margins hold.

#include <cstdio>

#include "driver/driver.hpp"
#include "driver/sweep.hpp"
#include "util/util.hpp"

int main(int argc, char** argv) {
  coupon::CliFlags flags;
  flags.add_int("iterations", 60, "GD iterations per run");
  if (!flags.parse(argc, argv)) {
    return 1;
  }

  const auto base = coupon::simulate::ec2_scenario_one();
  const double base_bw = base.cluster.unit_transfer_seconds;

  std::printf("Master-ingress bandwidth sweep — %s\n"
              "(transfer scale 1.0 = %.1f ms per gradient unit)\n\n",
              base.name.c_str(), base_bw * 1e3);
  coupon::AsciiTable table({"transfer scale", "uncoded total (s)",
                            "CR total (s)", "BCC total (s)",
                            "BCC vs uncoded", "comm-dominated?"});
  for (double scale : {0.01, 0.1, 0.5, 1.0, 2.0, 10.0}) {
    auto scenario = base;
    scenario.cluster.unit_transfer_seconds = base_bw * scale;
    coupon::driver::SweepPlan plan;
    plan.base = coupon::driver::config_from_sim_scenario(scenario);
    plan.base.iterations =
        static_cast<std::size_t>(flags.get_int("iterations"));
    plan.base.record_trace = false;
    plan.schemes = {"uncoded", "cr", "bcc"};
    const auto rows = coupon::driver::run_sweep(plan);
    const bool comm_dominated = rows[0].comm_time > rows[0].compute_time;
    table.add_row(
        {coupon::format_double(scale, 2),
         coupon::format_double(rows[0].total_time, 3),
         coupon::format_double(rows[1].total_time, 3),
         coupon::format_double(rows[2].total_time, 3),
         coupon::format_percent(
             coupon::driver::speedup_fraction(rows[2], rows[0])),
         comm_dominated ? "yes" : "no"});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nThe BCC < CR < uncoded ranking persists at every "
              "bandwidth (lower K also means\nfewer straggler waits), but "
              "the paper's large margins require the comm-dominated\n"
              "regime — at very fast ingress the compute tail sets the "
              "gap instead.\n");
  return 0;
}
