/// \file main.cpp
/// perfbench: the repository benchmark.
///
///   perfbench --workload <sim_mega|paper_grid|live_process|live_threaded>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--holdout-seed <n>] [--spans <prefix>]
///   perfbench --self-test
///
/// With --trace 0 the named workload runs untraced and the last stdout line
/// is {"correct", "attempted", "failed", "metrics"} with the end-to-end
/// metrics. With --trace 1 the traced run covers every workload and the
/// metrics are the per-layer split. Lines before it (prefixed '#') carry
/// the machine, the build, the inputs and the checks. Numbers are printed
/// only after every output check passed; a failed check exits 1.

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"

namespace {

using perfbench::Report;
using perfbench::RunSpec;

struct Machine {
  unsigned nproc = 0;
  std::string cpu = "unknown";
  std::string llc = "unknown";
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;
};

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

Machine probe_machine() {
  Machine m;
  m.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        m.cpu = line.substr(colon + 2);
      }
      break;
    }
  }
  // The last-level cache: the highest cache index of cpu0.
  for (int index = 9; index >= 0; --index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string size = read_line(dir + "/size");
    if (!size.empty()) {
      m.llc = "L" + read_line(dir + "/level") + " " + size;
      break;
    }
  }
  return m;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The result line. Only ever written after every check passed.
std::string result_json(const Report& report) {
  std::ostringstream out;
  out << "{\"correct\": true, \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    out << (first ? "" : ", ") << '"' << json_escape(name) << "\": {\"value\": "
        << number(metric.value) << ", \"unit\": \"" << json_escape(metric.unit)
        << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

/// Tiny size of every workload, first as is (checks must pass), then with
/// corrupted expected outputs (checks must fail).
int self_test() {
  int failures = 0;
  for (const std::string& name : perfbench::workload_names()) {
    for (const bool corrupt : {false, true}) {
      RunSpec spec;
      spec.seed = 11;
      spec.holdout_seed = 12;
      spec.seconds = 0.2;
      spec.tiny = true;
      spec.corrupt_expected = corrupt;
      std::string outcome;
      bool caught = false;
      try {
        perfbench::run_workload(name, spec);
        outcome = "checks passed";
      } catch (const perfbench::CheckFailure& e) {
        caught = true;
        outcome = std::string("check failed: ") + e.what();
      }
      const bool ok = caught == corrupt;
      failures += ok ? 0 : 1;
      std::printf("# self-test %-13s %-9s %s -> %s\n", name.c_str(),
                  corrupt ? "corrupted" : "clean", ok ? "ok" : "WRONG",
                  outcome.c_str());
    }
  }
  std::printf("# self-test %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--holdout-seed <n>] [--spans <prefix>] "
               "| --self-test\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Machine machine = probe_machine();
  if (machine.build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 machine.build_type.c_str());
    return 2;
  }

  std::string workload;
  std::string spans_path;
  RunSpec spec;
  bool have_holdout = false;
  bool trace = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      return self_test();
    }
    if (i + 1 >= argc) {
      return usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        spec.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--holdout-seed") {
        spec.holdout_seed = std::stoull(value);
        have_holdout = true;
      } else if (arg == "--seconds") {
        spec.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") {
          return usage("--trace takes 0 or 1");
        }
        trace = value == "1";
      } else if (arg == "--spans") {
        spans_path = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  bool known = false;
  for (const auto& name : perfbench::workload_names()) {
    known = known || name == workload;
  }
  if (!known || !have_seed || !(spec.seconds > 0.0)) {
    return usage("need a known --workload, a --seed and --seconds > 0");
  }
  if (!have_holdout) {
    spec.holdout_seed = perfbench::derive_seed(spec.seed, 0x5eed);
  }

  std::printf("# machine: nproc %u | cpu %s | llc %s\n", machine.nproc,
              machine.cpu.c_str(), machine.llc.c_str());
  std::printf("# build: %s, CMAKE_BUILD_TYPE=%s\n", machine.compiler.c_str(),
              machine.build_type.c_str());
  std::printf("# run: workload %s, seed %" PRIu64 ", held-out seed %" PRIu64
              ", %.3g s, trace %d\n",
              workload.c_str(), spec.seed, spec.holdout_seed, spec.seconds,
              trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  try {
    report = trace ? perfbench::run_traced(spec, spans_path)
                   : perfbench::run_workload(workload, spec);
  } catch (const perfbench::CheckFailure& e) {
    std::printf("# check failed: %s\n", e.what());
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : report.notes) {
    std::printf("# %s\n", line.c_str());
  }
  for (const auto& [name, metric] : report.metrics) {
    std::printf("# %-34s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("# fail_frac %.6g (%" PRIu64 " of %" PRIu64
              " iterations ended without recovery)\n",
              report.attempted ? static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted)
                               : 0.0,
              report.failed, report.attempted);
  std::printf("%s\n", result_json(report).c_str());
  return 0;
}
