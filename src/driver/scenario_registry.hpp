#pragma once

/// \file scenario_registry.hpp
/// Open registry of straggler scenarios (DESIGN.md §3).
///
/// A *scenario* bundles the two descriptions of the same straggler
/// behaviour the codebase needs: the discrete-event simulator's
/// `ClusterConfig` and the threaded runtime's `StragglerInjection`
/// (injected sleeps standing in for t2.micro latency variance), so one
/// `--scenario` flag drives either runtime. Scenarios are published under
/// a name with a builder that realizes the dual view for a given cluster
/// size; adding one is a single `ScenarioRegistration` call — no switch
/// or name-table edits. A scenario is the one way to describe a cluster:
/// ablation knobs are parameterized spellings ("lossy:<p>",
/// "fast_network:<speedup>"), and a caller with a truly custom cluster
/// registers its own scenario (see examples/compare_schemes).
///
/// Registration discipline mirrors core::SchemeRegistry: register before
/// experiments run; lookups may then be concurrent.

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/elasticity.hpp"
#include "runtime/straggler.hpp"
#include "simulate/cluster_config.hpp"

namespace coupon::driver {

/// A named straggler scenario, realized for a given cluster size.
struct Scenario {
  std::string name;
  std::string description;
  simulate::ClusterConfig cluster;        ///< simulated-runtime view
  runtime::StragglerInjection straggler;  ///< threaded-runtime view
  /// True when the scenario only varies simulator-side knobs (message
  /// loss, ingress bandwidth, per-worker latency profiles) that the
  /// threaded runtime cannot express yet; the driver rejects such
  /// scenarios under --runtime threaded instead of silently running
  /// shifted_exp behaviour under a different label.
  bool sim_only = false;
  /// True when the scenario needs a live cluster (elasticity plans:
  /// workers join/leave mid-run); the driver rejects such scenarios
  /// under --runtime sim.
  bool live_only = false;
  /// Planned worker absences, honoured by the live runtimes (the master
  /// skips broadcasting to an absent worker; rejoin = next broadcast).
  runtime::ElasticityPlan elasticity;
};

/// One registry entry. The builder fills the dual cluster/straggler view
/// for `num_workers` workers; name/description/sim_only are stamped onto
/// the built Scenario by the registry so they stay single-sourced here.
/// An entry may instead (or additionally) provide `param_builder`, making
/// it selectable as "name:arg" — e.g. "trace:<path>" builds a
/// trace-replay scenario from a CSV file.
struct ScenarioEntry {
  std::string name;
  std::string description;
  bool sim_only = false;
  bool live_only = false;
  std::function<Scenario(std::size_t num_workers)> builder;
  /// Builder for the parameterized "name:arg" spelling; the argument is
  /// everything after the first ':'.
  std::function<Scenario(std::string_view arg, std::size_t num_workers)>
      param_builder;
};

/// Process-wide scenario registry. Built-ins (shifted_exp, hetero,
/// lossy[:<p>], fast_network[:<speedup>], no_stragglers, one per latency
/// model: heavy_tail, weibull, bursty, markov, trace:<path>, and the live
/// elastic[:<count>@<leave>-<rejoin>]) are registered on first access.
class ScenarioRegistry {
 public:
  static ScenarioRegistry& instance();

  /// Registers `entry`; throws std::invalid_argument on a duplicate
  /// name, an empty name, or no builder of either kind.
  void add(ScenarioEntry entry);

  /// Looks up by exact registered name; nullptr when unknown. (The
  /// "--list" view: a parameterized entry is returned under its bare
  /// name.)
  const ScenarioEntry* find(std::string_view name) const;

  /// Resolves a scenario *selection*: an exact name with a builder, or
  /// "name:arg" for an entry with a param_builder. nullptr when the
  /// selection cannot be built.
  const ScenarioEntry* resolve(std::string_view name) const;

  /// Realizes the named scenario for `num_workers` workers. Accepts both
  /// plain and "name:arg" spellings; the built Scenario's `name` is the
  /// full spelling. Throws std::invalid_argument listing the valid
  /// choices on an unknown name, explaining the "name:arg" form when a
  /// parameterized entry is selected bare, or naming the spelling when
  /// its argument does not parse (sweep planning and CLI parsing build
  /// each spelling once for exactly this check).
  Scenario build(std::string_view name, std::size_t num_workers) const;

  /// Names in registration order.
  std::vector<std::string> names() const;

  /// "shifted_exp|hetero|..." for --help strings.
  std::string choices() const;

  /// "unknown scenario 'x' (did you mean 'y'? choices: ...)" — the
  /// shared diagnostic; a parameterized entry selected bare gets the
  /// "requires an argument; select it as 'name:<arg>'" explanation.
  std::string unknown_message(std::string_view name) const;

 private:
  ScenarioRegistry();  // registers the built-ins

  std::vector<ScenarioEntry> entries_;
};

/// Self-registration helper for out-of-tree scenarios.
struct ScenarioRegistration {
  explicit ScenarioRegistration(ScenarioEntry entry) {
    ScenarioRegistry::instance().add(std::move(entry));
  }
};

}  // namespace coupon::driver
