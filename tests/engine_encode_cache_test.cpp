// Pins the PR's bitwise-equivalence contracts (DESIGN.md §12):
//
//   * `Scheme::encode_into` produces byte-identical messages to `encode`
//     for every registered scheme, including when the out-message is
//     reused across workers (the allocation-free path's buffer reuse);
//   * encoding through a `CachedGradientSource` changes no bytes;
//   * `Scheme::encode_group` names only workers whose messages really
//     are bitwise identical;
//   * a `SimulatedProvider` with the cached encode path produces the
//     exact training trajectory (weights, loss history, clock) of the
//     legacy fresh-encode-per-arrival path.

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "core/core.hpp"
#include "data/batching.hpp"
#include "data/synthetic.hpp"
#include "engine/engine.hpp"
#include "opt/least_squares.hpp"
#include "opt/optimizer.hpp"
#include "opt/schedule.hpp"
#include "stats/rng.hpp"

namespace coupon {
namespace {

constexpr const char* kAllSchemes[] = {"uncoded",   "bcc", "simple_random",
                                       "cr",        "fr",  "gc_cyclic",
                                       "sgc",       "gc_nested"};

core::SchemeConfig test_scheme_config() {
  core::SchemeConfig config;
  config.num_workers = 24;
  config.num_units = 24;
  config.load = 4;
  return config;
}

data::SyntheticProblem test_problem(std::uint64_t seed) {
  data::SyntheticConfig dconf;
  dconf.num_features = 12;
  stats::Rng rng(seed);
  return data::generate_linreg(/*num_examples=*/24, dconf,
                               /*noise_stddev=*/0.2, rng);
}

std::vector<double> random_point(std::size_t dim, stats::Rng& rng) {
  std::vector<double> w(dim);
  for (double& v : w) {
    v = rng.normal();
  }
  return w;
}

void expect_bitwise_equal(std::span<const double> a, std::span<const double> b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what;
  }
}

TEST(EncodeInto, MatchesEncodeBytesForEverySchemeAndSeed) {
  const data::SyntheticProblem problem = test_problem(0xE0C0DE);
  const core::LeastSquaresExampleSource source(problem.dataset);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    stats::Rng w_rng(seed * 1000 + 7);
    const std::vector<double> w = random_point(source.dim(), w_rng);
    for (const char* kind : kAllSchemes) {
      stats::Rng build_rng(seed);
      const auto scheme = core::SchemeRegistry::instance().create(
          kind, test_scheme_config(), build_rng);
      // One reused out-message across all workers: stale meta/payload from
      // the previous worker must never leak into the next encode.
      comm::Message reused;
      for (std::size_t worker = 0; worker < scheme->num_workers(); ++worker) {
        const comm::Message reference = scheme->encode(worker, source, w);
        scheme->encode_into(worker, source, w, reused);
        EXPECT_EQ(reused.meta, reference.meta)
            << kind << " worker " << worker;
        expect_bitwise_equal(reused.payload, reference.payload, kind);
      }
    }
  }
}

TEST(EncodeInto, CachedSourceChangesNoBytes) {
  const data::SyntheticProblem problem = test_problem(0xCAC4ED);
  const core::LeastSquaresExampleSource raw(problem.dataset);
  const core::CachedGradientSource cached(raw);
  stats::Rng w_rng(99);
  const std::vector<double> w = random_point(raw.dim(), w_rng);
  for (const char* kind : kAllSchemes) {
    stats::Rng build_rng(5);
    const auto scheme = core::SchemeRegistry::instance().create(
        kind, test_scheme_config(), build_rng);
    comm::Message via_cache;
    for (std::size_t worker = 0; worker < scheme->num_workers(); ++worker) {
      const comm::Message reference = scheme->encode(worker, raw, w);
      scheme->encode_into(worker, cached, w, via_cache);
      EXPECT_EQ(via_cache.meta, reference.meta) << kind;
      expect_bitwise_equal(via_cache.payload, reference.payload, kind);
    }
  }
}

TEST(EncodeGroup, NamesOnlyBitwiseIdenticalMessages) {
  const data::SyntheticProblem problem = test_problem(0x96057);
  const core::LeastSquaresExampleSource source(problem.dataset);
  stats::Rng w_rng(17);
  const std::vector<double> w = random_point(source.dim(), w_rng);
  for (const char* kind : kAllSchemes) {
    stats::Rng build_rng(21);
    const auto scheme = core::SchemeRegistry::instance().create(
        kind, test_scheme_config(), build_rng);
    const std::size_t num_groups = scheme->num_encode_groups();
    std::vector<comm::Message> first_in_group(num_groups);
    std::vector<bool> seen(num_groups, false);
    for (std::size_t worker = 0; worker < scheme->num_workers(); ++worker) {
      const auto group = scheme->encode_group(worker);
      if (!group) {
        continue;
      }
      ASSERT_LT(*group, num_groups) << kind;
      const comm::Message msg = scheme->encode(worker, source, w);
      if (!seen[*group]) {
        seen[*group] = true;
        first_in_group[*group] = msg;
        continue;
      }
      EXPECT_EQ(msg.meta, first_in_group[*group].meta) << kind;
      expect_bitwise_equal(msg.payload, first_in_group[*group].payload, kind);
    }
    if (num_groups == 0) {
      for (std::size_t worker = 0; worker < scheme->num_workers(); ++worker) {
        EXPECT_FALSE(scheme->encode_group(worker).has_value()) << kind;
      }
    }
  }
}

/// Counts inner calls so the memoization scope is observable.
class CountingSource final : public core::UnitGradientSource {
 public:
  CountingSource(std::size_t units, std::size_t dim)
      : units_(units), dim_(dim) {}

  std::size_t num_units() const override { return units_; }
  std::size_t dim() const override { return dim_; }
  std::size_t num_examples() const override { return units_; }

  void unit_gradient(std::size_t unit, std::span<const double> w,
                     std::span<double> out) const override {
    ++unit_calls;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<double>(unit) + 0.5 * static_cast<double>(i) + w[0];
    }
  }

  void accumulate_unit_gradient(std::size_t unit, std::span<const double> w,
                                std::span<double> out) const override {
    ++accumulate_calls;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] += static_cast<double>(unit) + 0.5 * static_cast<double>(i) + w[0];
    }
  }

  mutable std::size_t unit_calls = 0;
  mutable std::size_t accumulate_calls = 0;

 private:
  std::size_t units_;
  std::size_t dim_;
};

TEST(CachedGradientSource, ComputesEachUnitOncePerIteration) {
  const CountingSource inner(/*units=*/6, /*dim=*/4);
  core::CachedGradientSource cache(inner);
  const std::vector<double> w = {1.25, 0.0, 0.0, 0.0};
  std::vector<double> out(4);
  std::vector<double> scratch(4);

  cache.begin_iteration();
  cache.unit_gradient(3, w, out);
  EXPECT_EQ(inner.unit_calls, 1u);
  const std::vector<double> first = out;
  cache.unit_gradient(3, w, out);
  EXPECT_EQ(inner.unit_calls, 1u);  // served from the slab
  expect_bitwise_equal(out, first, "cached repeat");

  // The view must alias the slab (no scratch write) and match the bits.
  std::fill(scratch.begin(), scratch.end(), -7.0);
  const std::span<const double> view = cache.unit_gradient_view(3, w, scratch);
  EXPECT_EQ(inner.unit_calls, 1u);
  expect_bitwise_equal(view, first, "cached view");
  EXPECT_EQ(scratch[0], -7.0);  // scratch untouched

  // Distinct units are distinct cache rows.
  cache.unit_gradient(5, w, out);
  EXPECT_EQ(inner.unit_calls, 2u);

  // A new iteration invalidates every row.
  cache.begin_iteration();
  cache.unit_gradient(3, w, out);
  EXPECT_EQ(inner.unit_calls, 3u);
}

TEST(CachedGradientSource, AccumulateDelegatesUncached) {
  // Accumulate-style encoders fold examples into running sums whose FP
  // association order the golden traces pin — the cache must pass those
  // calls straight through every time.
  const CountingSource inner(/*units=*/4, /*dim=*/3);
  core::CachedGradientSource cache(inner);
  const std::vector<double> w = {0.5, 0.0, 0.0};
  std::vector<double> out(3, 0.0);

  cache.begin_iteration();
  cache.accumulate_unit_gradient(2, w, out);
  cache.accumulate_unit_gradient(2, w, out);
  EXPECT_EQ(inner.accumulate_calls, 2u);
  EXPECT_EQ(inner.unit_calls, 0u);
}

TEST(ProviderCache, CachedPathMatchesLegacyTrajectoryBitwise) {
  // Full training runs, cache_encode on vs off: same scheme, same seeds,
  // same cluster. The trajectories — every weight, every loss point, the
  // simulated clock — must match bit for bit for every scheme.
  const data::SyntheticProblem problem = test_problem(0x7247);
  const core::LeastSquaresExampleSource source(problem.dataset);
  simulate::ClusterConfig cluster;
  cluster.compute_shift = 1e-3;
  cluster.compute_straggle = 10.0;
  cluster.unit_transfer_seconds = 2e-3;
  cluster.broadcast_seconds = 1e-4;
  cluster.drop_probability = 0.1;  // exercise failure iterations too

  const data::Dataset* dataset = &problem.dataset;
  for (const char* kind : kAllSchemes) {
    stats::Rng build_rng(33);
    const auto scheme = core::SchemeRegistry::instance().create(
        kind, test_scheme_config(), build_rng);

    auto run = [&](bool cache_encode) {
      stats::Rng rng(0xF00D);
      engine::ProviderOptions popts;
      popts.cache_encode = cache_encode;
      engine::SimulatedProvider provider(*scheme, source, cluster, rng, popts);
      engine::TrainingEngine protocol(*scheme, source, provider);
      opt::NesterovGradient optimizer(
          source.dim(), opt::LearningRateSchedule::constant(0.05));
      engine::TrainOptions options;
      options.iterations = 40;
      options.on_failure = engine::FailurePolicy::kSkipUpdate;
      options.loss_fn = [dataset](std::span<const double> w) {
        return opt::squared_loss(*dataset, w);
      };
      options.record_loss_history = true;
      return protocol.train(optimizer, options);
    };

    const engine::TrainReport cached = run(/*cache_encode=*/true);
    const engine::TrainReport legacy = run(/*cache_encode=*/false);
    expect_bitwise_equal(cached.weights, legacy.weights, kind);
    EXPECT_EQ(cached.elapsed_seconds, legacy.elapsed_seconds) << kind;
    EXPECT_EQ(cached.failed_iterations, legacy.failed_iterations) << kind;
    ASSERT_EQ(cached.loss_history.size(), legacy.loss_history.size()) << kind;
    for (std::size_t i = 0; i < cached.loss_history.size(); ++i) {
      EXPECT_EQ(cached.loss_history[i].loss, legacy.loss_history[i].loss)
          << kind << " iteration " << i;
      EXPECT_EQ(cached.loss_history[i].seconds,
                legacy.loss_history[i].seconds)
          << kind << " iteration " << i;
    }
  }
}

// `Scheme::encode` is one base-class wrapper over every scheme's
// `encode_into`, and `UnitGradientSource::accumulate_units_gradient`'s
// default is the contract out-of-tree sources rely on (its doc promises
// exact equivalence with the per-unit loop). Each is pinned against the
// in-tree code it must agree with.

TEST(BaseClassDefaults, SchemeEncodeForwardsToEncodeInto) {
  const data::SyntheticProblem problem = test_problem(0xBA5EDEF);
  const core::LeastSquaresExampleSource source(problem.dataset);
  stats::Rng rng(41);
  for (const auto& name : core::SchemeRegistry::instance().names()) {
    stats::Rng build_rng(7);
    const auto scheme = core::SchemeRegistry::instance().create(
        name, test_scheme_config(), build_rng);
    const std::vector<double> w = random_point(source.dim(), rng);
    for (std::size_t worker : {std::size_t{0}, std::size_t{5}}) {
      const comm::Message wrapped = scheme->encode(worker, source, w);
      EXPECT_EQ(wrapped.tag, comm::kTagGradient) << name;
      // A dirty reused message: stale meta/payload must be replaced, and
      // the routing fields are the caller's, so encode_into keeps them.
      comm::Message reused;
      reused.tag = comm::kTagShutdown;
      reused.meta.assign(7, -1);
      reused.payload.assign(3, -1.0);
      scheme->encode_into(worker, source, w, reused);
      EXPECT_EQ(reused.tag, comm::kTagShutdown) << name;
      EXPECT_EQ(wrapped.meta, reused.meta) << name;
      expect_bitwise_equal(wrapped.payload, reused.payload, name.c_str());
    }
  }
}

TEST(BaseClassDefaults, AccumulateUnitsGradientLoopMatchesOverrides) {
  const data::SyntheticProblem problem = test_problem(0xACCDEF);
  stats::Rng rng(43);
  const std::vector<double> w = random_point(12, rng);
  const std::vector<std::size_t> units = {3, 4, 5, 9, 0, 17};

  const core::LeastSquaresExampleSource ls(problem.dataset);
  const data::BatchPartition partition(problem.dataset.num_examples(), 4);
  const core::GroupedBatchSource grouped(problem.dataset, partition);
  const core::UnitGradientSource* sources[] = {&ls, &grouped};
  for (const core::UnitGradientSource* source : sources) {
    std::vector<std::size_t> used;
    for (const std::size_t unit : units) {
      if (unit < source->num_units()) {
        used.push_back(unit);
      }
    }
    std::vector<double> fast(source->dim(), 0.25);
    std::vector<double> loop(source->dim(), 0.25);
    source->accumulate_units_gradient(used, w, fast);
    source->core::UnitGradientSource::accumulate_units_gradient(used, w, loop);
    expect_bitwise_equal(fast, loop, "units loop vs override");

    // The per-unit accumulate itself must match unit_gradient + add.
    std::vector<double> acc(source->dim(), 0.0);
    std::vector<double> fresh(source->dim());
    source->accumulate_unit_gradient(used.front(), w, acc);
    source->unit_gradient(used.front(), w, fresh);
    expect_bitwise_equal(acc, fresh, "accumulate into zeros vs overwrite");
  }
}

TEST(BaseClassDefaults, UnitGradientViewComputesIntoScratch) {
  const data::SyntheticProblem problem = test_problem(0x51DEDEF);
  const core::LeastSquaresExampleSource source(problem.dataset);
  stats::Rng rng(47);
  const std::vector<double> w = random_point(source.dim(), rng);
  std::vector<double> scratch(source.dim(), -7.0);
  const std::span<const double> view =
      source.core::UnitGradientSource::unit_gradient_view(2, w, scratch);
  EXPECT_EQ(view.data(), scratch.data());
  std::vector<double> fresh(source.dim());
  source.unit_gradient(2, w, fresh);
  expect_bitwise_equal(view, fresh, "default view vs unit_gradient");
}

}  // namespace
}  // namespace coupon

