#include "driver/runtime_registry.hpp"

#include <stdexcept>

#include "driver/scenario_registry.hpp"
#include "util/names.hpp"

namespace coupon::driver {

const RuntimeRegistry& RuntimeRegistry::instance() {
  static const RuntimeRegistry registry;
  return registry;
}

// Built-ins, in the presentation order the CLI help has always used.
RuntimeRegistry::RuntimeRegistry()
    : entries_{
      {.name = "sim",
       .aliases = {"simulated", "simulate"},
       .description =
           "discrete-event cluster model: per-iteration latency traces, "
           "no gradients computed",
       .caps = {.simulated_clock = true},
       .factory = [] { return std::make_unique<SimulatedRuntime>(); }},
      {.name = "threaded",
       .aliases = {"thread", "threads"},
       .description =
           "real master/worker threads training synthetic logistic "
           "regression over an in-process network",
       .caps = {},
       .factory = [] { return std::make_unique<ThreadedRuntime>(); }},
      {.name = "process",
       .aliases = {"processes", "proc"},
       .description =
           "worker OS processes over framed stream sockets: real crash "
           "tolerance (SIGKILL -> EOF -> FailurePolicy), same protocol",
       .caps = {.spawns_processes = true},
       .factory = [] { return std::make_unique<ProcessRuntime>(); }}} {}

const RuntimeEntry* RuntimeRegistry::find(
    std::string_view name_or_alias) const {
  for (const auto& entry : entries_) {
    if (entry.name == name_or_alias) {
      return &entry;
    }
    for (const auto& alias : entry.aliases) {
      if (alias == name_or_alias) {
        return &entry;
      }
    }
  }
  return nullptr;
}

std::unique_ptr<Runtime> RuntimeRegistry::create(
    std::string_view name_or_alias) const {
  const RuntimeEntry* entry = find(name_or_alias);
  return entry == nullptr ? nullptr : entry->factory();
}

std::vector<std::string> RuntimeRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    out.push_back(entry.name);
  }
  return out;
}

std::string RuntimeRegistry::choices() const { return join_names(names()); }

std::string RuntimeRegistry::unknown_message(std::string_view name) const {
  return unknown_name_message("runtime", name, names());
}

void check_runtime_accepts(const RuntimeEntry& runtime,
                           const ExperimentConfig& config) {
  const auto& scenarios = ScenarioRegistry::instance();
  const ScenarioEntry* scenario = scenarios.resolve(config.scenario);
  if (scenario == nullptr) {
    throw std::invalid_argument(scenarios.unknown_message(config.scenario));
  }
  const RuntimeCapabilities& caps = runtime.caps;
  const std::string on = "; the " + runtime.name + " runtime ";
  if (scenario->sim_only && !caps.simulated_clock) {
    throw std::invalid_argument("scenario '" + config.scenario +
                                "' only varies simulator-side knobs" + on +
                                "cannot express it — use --runtime sim");
  }
  if (scenario->live_only && caps.simulated_clock) {
    throw std::invalid_argument(
        "scenario '" + config.scenario +
        "' needs a live cluster (workers join/leave)" + on +
        "cannot express it — use --runtime threaded or process");
  }
  if (config.worker_timeout_ms < 0) {
    throw std::invalid_argument(
        "worker_timeout_ms must be >= 0 (0 = wait forever), got " +
        std::to_string(config.worker_timeout_ms));
  }
  if (config.crash_worker) {
    if (!caps.spawns_processes) {
      throw std::invalid_argument(
          "crash_worker injects a real worker-process SIGKILL" + on +
          "has no processes to kill — use --runtime process");
    }
    if (*config.crash_worker >= config.num_workers) {
      throw std::invalid_argument(
          "crash_worker " + std::to_string(*config.crash_worker) +
          " out of range (n = " + std::to_string(config.num_workers) + ")");
    }
  }
}

}  // namespace coupon::driver
