// Microbenchmarks for the linalg kernels production runs: dot/axpy (the
// workers' logistic-regression partial gradients) and the cyclic-
// repetition baseline's two dense solves (the s x s solve per coding-
// matrix row, and the least-squares decode per iteration).

#include <benchmark/benchmark.h>

#include "linalg/solve.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/rng.hpp"

namespace {

using coupon::linalg::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  coupon::stats::Rng rng(seed);
  Matrix m(rows, cols);
  for (auto& v : m.data()) {
    v = rng.normal();
  }
  return m;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  coupon::stats::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) {
    x = rng.normal();
  }
  return v;
}

void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vector(n, 1);
  const auto y = random_vector(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coupon::linalg::dot(x, y));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 16);
}
BENCHMARK(BM_Dot)->Arg(1000)->Arg(8000)->Arg(64000);

void BM_Axpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vector(n, 3);
  auto y = random_vector(n, 4);
  for (auto _ : state) {
    coupon::linalg::axpy(0.5, x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Axpy)->Arg(1000)->Arg(8000)->Arg(64000);

void BM_Solve(benchmark::State& state) {
  // The CR construction shape: s x s with s = r - 1 (r = 10 in Table I).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_matrix(n, n, 11);
  const auto b = random_vector(n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coupon::linalg::solve(a, b));
  }
}
BENCHMARK(BM_Solve)->Arg(9);

void BM_LstsqInto(benchmark::State& state) {
  // The CR decode shape: n rows (units), n - s columns (survivors), with
  // a warm workspace as the decoder keeps one. Table I: n = 50, s = 9.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto cols = n - 9;
  const auto a = random_matrix(n, cols, 13);
  const std::vector<double> b(n, 1.0);
  std::vector<double> x(cols);
  coupon::linalg::LstsqWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coupon::linalg::lstsq_into(a, b, x, ws));
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LstsqInto)->Arg(50);

}  // namespace

BENCHMARK_MAIN();
