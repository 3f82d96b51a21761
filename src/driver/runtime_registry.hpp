#pragma once

/// \file runtime_registry.hpp
/// Open registry of execution runtimes (DESIGN.md §9).
///
/// A runtime is published under a canonical CLI name plus optional
/// aliases, together with a factory and capability flags. The driver,
/// sweep planner, and tools select runtimes by name through this
/// registry, so adding an execution substrate is one
/// `RuntimeRegistration` call in the new runtime's translation unit — no
/// if/else ladder, enum, or name-table edits. The capability flags
/// replace the `name() == "threaded"` string checks that used to gate
/// sweep planning and config validation: callers ask what a runtime can
/// do, not what it is called.
///
/// Registration discipline mirrors core::SchemeRegistry: register at
/// static-initialization time (via `RuntimeRegistration`) or during
/// single-threaded startup, before experiments run. Lookups are const
/// and may then be issued concurrently from sweep worker threads.

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

/// Process-wide name -> factory registry. The three built-in runtimes
/// are registered on first access, in presentation order
/// (sim, threaded, process).
class RuntimeRegistry {
 public:
  static RuntimeRegistry& instance();

  /// Registers `entry`. Throws std::invalid_argument when the name or any
  /// alias collides with an existing name/alias, or when the entry has no
  /// name or no factory.
  void add(RuntimeEntry entry);

  /// Looks up a canonical name or alias; nullptr when unknown. The
  /// returned pointer stays valid for the process lifetime.
  const RuntimeEntry* find(std::string_view name_or_alias) const;

  /// Builds the named runtime; nullptr for an unknown name (the
  /// long-standing make_runtime contract — callers print
  /// `unknown_message` themselves).
  std::unique_ptr<Runtime> create(std::string_view name_or_alias) const;

  /// Canonical names in registration order.
  std::vector<std::string> names() const;

  /// "sim|threaded|process|..." for --help strings.
  std::string choices() const;

  /// "unknown runtime 'x' (did you mean 'y'? choices: ...)" — the shared
  /// diagnostic.
  std::string unknown_message(std::string_view name) const;

 private:
  RuntimeRegistry();  // registers the built-ins

  std::vector<RuntimeEntry> entries_;  // stable: entries are never removed
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

/// Self-registration helper: a namespace-scope
///   static const driver::RuntimeRegistration my_runtime{{.name = ...}};
/// in the runtime's translation unit publishes it before main() runs.
struct RuntimeRegistration {
  explicit RuntimeRegistration(RuntimeEntry entry) {
    RuntimeRegistry::instance().add(std::move(entry));
  }
};

}  // namespace coupon::driver
