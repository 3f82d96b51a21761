#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Latency summarize(std::vector<double> samples) {
  Latency out;
  out.count = samples.size();
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  out.p50 = median(samples);
  out.tail = out.p50;
  out.tail_percentile = 50.0;
  // The highest standard percentile (nearest rank) with at least ten
  // samples beyond it.
  const std::size_t n = samples.size();
  for (const double q : {99.0, 95.0, 90.0, 75.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(n)));
    const std::size_t k = rank == 0 ? 0 : rank - 1;
    if (n - 1 - k >= 10) {
      out.tail = samples[k];
      out.tail_percentile = q;
      break;
    }
  }
  return out;
}

void Reservoir::add(double value) {
  const std::size_t capacity = values_.size();
  if (seen_ < capacity) {
    values_[seen_] = value;
  } else {
    state_ = derive_seed(state_, seen_);
    const std::uint64_t j = state_ % (seen_ + 1);
    if (j < capacity) {
      values_[j] = value;
    }
  }
  ++seen_;
}

std::vector<double> Reservoir::samples() const {
  const std::size_t kept =
      static_cast<std::size_t>(std::min<std::uint64_t>(seen_, values_.size()));
  return {values_.begin(), values_.begin() + static_cast<std::ptrdiff_t>(kept)};
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void add_end_to_end(Report& report, const std::vector<double>& rates,
                    const Reservoir& iter_samples_us,
                    const std::vector<double>& setup_seconds,
                    const std::vector<double>& episode_tails) {
  const double rss = peak_rss_mb();  // before the summary allocates
  const Latency latency = summarize(iter_samples_us.samples());
  report.add("iters_per_s", median(rates), "1/s");
  report.add("iter_p50_us", latency.p50, "us");
  const double tail =
      episode_tails.empty() ? latency.tail : median(episode_tails);
  report.add("iter_tail_us", tail, "us");
  report.add("setup_s", median(setup_seconds), "s");
  report.add("peak_rss_mb", rss, "MiB");
  char line[320];
  std::snprintf(line, sizeof line,
                "iters_per_s: median of %zu episode rates; iteration samples: "
                "%zu of %llu, p50 %.3f us, tail p%g %.3f us (all samples); "
                "setup samples: %zu",
                rates.size(), latency.count,
                static_cast<unsigned long long>(iter_samples_us.seen()),
                latency.p50, latency.tail_percentile, latency.tail,
                setup_seconds.size());
  report.note(line);
  const Latency spread = summarize(rates);
  std::vector<double> sorted_rates = rates;
  std::sort(sorted_rates.begin(), sorted_rates.end());
  if (!sorted_rates.empty()) {
    std::snprintf(line, sizeof line,
                  "episode rates: min %.6g, p25 %.6g, p50 %.6g, p75 %.6g, max "
                  "%.6g 1/s",
                  sorted_rates.front(),
                  sorted_rates[sorted_rates.size() / 4], spread.p50,
                  sorted_rates[sorted_rates.size() * 3 / 4], sorted_rates.back());
    report.note(line);
  }
  if (!episode_tails.empty()) {
    std::snprintf(line, sizeof line,
                  "iter_tail_us: median over %zu blocks of 100 consecutive "
                  "iterations of each block's p90: %.3f us",
                  episode_tails.size(), tail);
    report.note(line);
  }
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"sim_mega", "paper_grid",
                                              "live_process", "live_threaded"};
  return names;
}

}  // namespace perfbench
