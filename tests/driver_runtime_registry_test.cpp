// Tests for the fixed runtime table: built-in coverage, alias lookup,
// capability flags, distinct spellings, and unknown-name diagnostics.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "driver/runtime_registry.hpp"

namespace coupon::driver {
namespace {

TEST(RuntimeRegistry, BuiltinsRegisteredInPresentationOrder) {
  const std::vector<std::string> expected = {"sim", "threaded", "process"};
  EXPECT_EQ(RuntimeRegistry::instance().names(), expected);
  EXPECT_EQ(RuntimeRegistry::instance().choices(), "sim|threaded|process");
}

TEST(RuntimeRegistry, EveryBuiltinIsConstructibleAndSelfNamed) {
  for (const auto& name : RuntimeRegistry::instance().names()) {
    auto runtime = RuntimeRegistry::instance().create(name);
    ASSERT_NE(runtime, nullptr) << name;
    EXPECT_EQ(runtime->name(), name);
  }
}

TEST(RuntimeRegistry, AliasLookupFindsCanonicalEntry) {
  const auto& registry = RuntimeRegistry::instance();
  const RuntimeEntry* by_alias = registry.find("simulated");
  ASSERT_NE(by_alias, nullptr);
  EXPECT_EQ(by_alias->name, "sim");
  EXPECT_EQ(registry.find("simulate"), registry.find("sim"));
  EXPECT_EQ(registry.find("thread"), registry.find("threaded"));
  EXPECT_EQ(registry.find("threads"), registry.find("threaded"));
  EXPECT_EQ(registry.find("processes"), registry.find("process"));
  EXPECT_EQ(registry.find("proc"), registry.find("process"));
  // Lookups are case-sensitive and exact.
  EXPECT_EQ(registry.find("SIM"), nullptr);
  EXPECT_EQ(registry.find(""), nullptr);
  EXPECT_EQ(registry.find("mpi"), nullptr);
}

TEST(RuntimeRegistry, CreateReturnsNullptrOnUnknownName) {
  // The long-standing make_runtime contract: no throw, callers print
  // unknown_message themselves.
  EXPECT_EQ(RuntimeRegistry::instance().create("mpi"), nullptr);
}

TEST(RuntimeRegistry, UnknownNameDiagnosticSuggestsNearestRuntime) {
  const std::string message =
      RuntimeRegistry::instance().unknown_message("proces");
  EXPECT_NE(message.find("did you mean 'process'?"), std::string::npos)
      << message;
  EXPECT_NE(message.find("choices"), std::string::npos);
  EXPECT_NE(message.find("sim|threaded|process"), std::string::npos);
  // A name far from every registered runtime gets no suggestion.
  const std::string far =
      RuntimeRegistry::instance().unknown_message("zzzzz");
  EXPECT_EQ(far.find("did you mean"), std::string::npos) << far;
}

TEST(RuntimeRegistry, CapabilityFlagsMatchTheRuntimes) {
  const auto& registry = RuntimeRegistry::instance();
  const auto& sim = registry.find("sim")->caps;
  EXPECT_TRUE(sim.simulated_clock);
  EXPECT_FALSE(sim.spawns_processes);

  const auto& threaded = registry.find("threaded")->caps;
  EXPECT_FALSE(threaded.simulated_clock);
  EXPECT_FALSE(threaded.spawns_processes);

  const auto& process = registry.find("process")->caps;
  EXPECT_FALSE(process.simulated_clock);
  EXPECT_TRUE(process.spawns_processes);
}

TEST(RuntimeRegistry, NamesAndAliasesArePairwiseDistinct) {
  // Every spelling resolves to exactly one entry: its own.
  const auto& registry = RuntimeRegistry::instance();
  std::set<std::string> seen;
  for (const auto& name : registry.names()) {
    const RuntimeEntry* entry = registry.find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_TRUE(entry->factory) << name;
    EXPECT_TRUE(seen.insert(entry->name).second) << entry->name;
    for (const auto& alias : entry->aliases) {
      EXPECT_TRUE(seen.insert(alias).second) << alias;
      EXPECT_EQ(registry.find(alias), entry) << alias;
    }
  }
  EXPECT_EQ(seen.count(""), 0u);
}

}  // namespace
}  // namespace coupon::driver
