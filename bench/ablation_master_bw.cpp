// Ablation: sensitivity of the Fig. 4 conclusions to the master ingress
// bandwidth (design choice #1 of DESIGN.md §5). The serialized master
// link is what makes total time proportional to the recovery threshold;
// this sweep scales the per-gradient transfer time up and down and shows
// when the ranking (BCC < CR < uncoded) and the speedup margins hold.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "driver/driver.hpp"
#include "driver/sweep.hpp"
#include "simulate/experiment.hpp"
#include "util/util.hpp"

int main(int argc, char** argv) {
  coupon::CliFlags flags;
  flags.add_int("iterations", 60, "GD iterations per run");
  if (!flags.parse(argc, argv)) {
    return 1;
  }

  const double base_bw = coupon::simulate::ec2_cluster().unit_transfer_seconds;
  // Transfer scale s is the fast_network:<1/s> scenario.
  const std::vector<std::pair<double, std::string>> scales = {
      {0.01, "100"}, {0.1, "10"}, {0.5, "2"},
      {1.0, "1"},    {2.0, "0.5"}, {10.0, "0.1"}};

  coupon::driver::SweepPlan plan;
  plan.base = coupon::driver::paper_scenario_one();
  plan.base.iterations =
      static_cast<std::size_t>(flags.get_int("iterations"));
  plan.base.record_trace = false;
  plan.schemes = {"uncoded", "cr", "bcc"};
  for (const auto& scale : scales) {
    plan.scenarios.push_back("fast_network:" + scale.second);
  }
  const auto records = coupon::driver::run_sweep(plan);

  std::printf("Master-ingress bandwidth sweep — scenario one (n=%zu, m=%zu "
              "batches)\n"
              "(transfer scale 1.0 = %.1f ms per gradient unit)\n\n",
              plan.base.num_workers, plan.base.num_units, base_bw * 1e3);
  coupon::AsciiTable table({"transfer scale", "uncoded total (s)",
                            "CR total (s)", "BCC total (s)",
                            "BCC vs uncoded", "comm-dominated?"});
  // Cell order is scheme-major, scenario-minor.
  for (std::size_t k = 0; k < scales.size(); ++k) {
    const auto& uncoded = records[k];
    const auto& cr = records[scales.size() + k];
    const auto& bcc = records[2 * scales.size() + k];
    const bool comm_dominated = uncoded.comm_time > uncoded.compute_time;
    table.add_row(
        {coupon::format_double(scales[k].first, 2),
         coupon::format_double(uncoded.total_time, 3),
         coupon::format_double(cr.total_time, 3),
         coupon::format_double(bcc.total_time, 3),
         coupon::format_percent(
             coupon::driver::speedup_fraction(bcc, uncoded)),
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
