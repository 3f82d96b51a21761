#pragma once

/// \file runtime_registry.hpp
/// The fixed table of execution runtimes (DESIGN.md §3, §9).
///
/// Each built-in runtime is listed under a canonical CLI name plus
/// optional aliases, together with a factory and capability flags. The
/// driver, sweep planner, and tools select runtimes by name through this
/// table. The capability flags replace the `name() == "threaded"` string
/// checks that used to gate sweep planning and config validation:
/// callers ask what a runtime can do, not what it is called. Like
/// core::SchemeRegistry, the table is built once, on first access, and is
/// read-only after that, so lookups may be issued concurrently from sweep
/// worker threads.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "driver/runtime.hpp"

namespace coupon::driver {

/// Static properties of a runtime that callers need before instantiating
/// one (config validation, sweep planning, `coupon_run --list`).
struct RuntimeCapabilities {
  /// Time is simulated: the discrete-event simulator, which can express
  /// every latency-model knob (per-worker profiles, message loss, ingress
  /// bandwidth) and so runs sim_only scenarios. False for the live
  /// runtimes, whose workers really compute gradients and train a model,
  /// and which alone can run live_only (elastic) scenarios.
  bool simulated_clock = false;
  /// Workers are separate OS processes: crash injection
  /// (ExperimentConfig::crash_worker) is meaningful, and the runtime
  /// needs fork()/socket support from the sandbox.
  bool spawns_processes = false;
};

/// One registry entry: identity, documentation, capabilities, factory.
struct RuntimeEntry {
  std::string name;                  ///< canonical CLI spelling, e.g. "sim"
  std::vector<std::string> aliases;  ///< extra spellings, e.g. "threads"
  std::string description;           ///< one-line --list text
  RuntimeCapabilities caps;
  std::function<std::unique_ptr<Runtime>()> factory;
};

/// Process-wide name -> factory table of the three built-in runtimes,
/// in presentation order (sim, threaded, process).
class RuntimeRegistry {
 public:
  static const RuntimeRegistry& instance();

  /// Looks up a canonical name or alias; nullptr when unknown. The
  /// returned pointer stays valid for the process lifetime.
  const RuntimeEntry* find(std::string_view name_or_alias) const;

  /// Builds the named runtime; nullptr for an unknown name (the
  /// long-standing make_runtime contract — callers print
  /// `unknown_message` themselves).
  std::unique_ptr<Runtime> create(std::string_view name_or_alias) const;

  /// Canonical names in presentation order.
  std::vector<std::string> names() const;

  /// "sim|threaded|process|..." for --help strings.
  std::string choices() const;

  /// "unknown runtime 'x' (did you mean 'y'? choices: ...)" — the shared
  /// diagnostic.
  std::string unknown_message(std::string_view name) const;

 private:
  RuntimeRegistry();  // lists the built-ins

  std::vector<RuntimeEntry> entries_;
};

/// The one runtime-compatibility check, called by `config_from_flags`,
/// sweep planning and every `Runtime::run`. Throws std::invalid_argument
/// when `config.scenario` does not resolve, or when `runtime`'s
/// capabilities cannot honour `config`: a sim_only scenario without a
/// simulated clock, a live_only (elastic) scenario with one, or a crash
/// drill on a runtime without worker processes — or naming a worker
/// outside [0, num_workers) — or a negative `worker_timeout_ms` (which
/// would otherwise read as "wait forever"). Only the scenario *name* is
/// resolved here; a "name:arg" argument is parsed when the scenario is
/// built.
void check_runtime_accepts(const RuntimeEntry& runtime,
                           const ExperimentConfig& config);

}  // namespace coupon::driver
