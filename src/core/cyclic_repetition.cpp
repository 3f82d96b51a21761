#include "core/cyclic_repetition.hpp"

#include "core/collectors.hpp"
#include "linalg/solve.hpp"
#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

/// Keeps the first n - s distinct workers' messages, then decodes via the
/// scheme's coding matrix. The kept set is walked in ascending worker
/// order, so the coefficient solve and the combination order do not
/// depend on arrival order; decode scratch is reused, so a
/// reset-and-reused collector allocates nothing once warm.
class CrCollector final : public WorkerSlotCollector {
 public:
  CrCollector(const CyclicRepetitionScheme& scheme, std::size_t needed)
      : WorkerSlotCollector(scheme.num_workers(), needed, 1),
        scheme_(scheme) {
    kept_.reserve(needed);
  }

  void decode_sum(std::span<double> out) const override {
    COUPON_ASSERT_MSG(ready(), "decode before n - s workers reported");
    kept_.clear();
    for (std::size_t i = 0; i < num_workers(); ++i) {
      if (heard(i)) {
        kept_.push_back(i);
      }
    }
    const bool solved = scheme_.decoding_coefficients_into(kept_, ws_);
    COUPON_ASSERT_MSG(solved, "CR decode solve failed");
    linalg::fill(out, 0.0);
    for (std::size_t k = 0; k < kept_.size(); ++k) {
      const auto row = slot(kept_[k]);
      COUPON_ASSERT(row.size() == out.size());
      linalg::axpy(ws_.coeffs[k], row, out);
    }
  }

 private:
  const CyclicRepetitionScheme& scheme_;
  mutable std::vector<std::size_t> kept_;
  mutable CrDecodeWorkspace ws_;
};

/// One attempt at Tandon et al.'s Algorithm 2. Returns nullopt when an
/// inner s x s system is singular (probability-zero event; caller redraws).
std::optional<linalg::Matrix> try_build_coding_matrix(std::size_t n,
                                                      std::size_t r,
                                                      stats::Rng& rng) {
  const std::size_t s = r - 1;
  if (s == 0) {
    return linalg::Matrix::identity(n);  // r = 1 degenerates to uncoded
  }
  // H: s x n i.i.d. normal, then force every row sum to zero => H 1 = 0.
  linalg::Matrix h(s, n);
  for (std::size_t i = 0; i < s; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j + 1 < n; ++j) {
      h(i, j) = rng.normal();
      row_sum += h(i, j);
    }
    h(i, n - 1) = -row_sum;
  }

  linalg::Matrix b(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    // Support: columns (i + t) mod n for t = 0..s; leading coefficient 1.
    // Remaining coefficients x solve  H_sub x = -h_i  so that row_i(B) is
    // in null(H).
    linalg::Matrix h_sub(s, s);
    std::vector<double> rhs(s);
    for (std::size_t row = 0; row < s; ++row) {
      rhs[row] = -h(row, i);
      for (std::size_t t = 0; t < s; ++t) {
        h_sub(row, t) = h(row, (i + 1 + t) % n);
      }
    }
    auto x = linalg::solve(h_sub, rhs);
    if (!x) {
      return std::nullopt;
    }
    b(i, i) = 1.0;
    for (std::size_t t = 0; t < s; ++t) {
      b(i, (i + 1 + t) % n) = (*x)[t];
    }
  }
  return b;
}

}  // namespace

CyclicRepetitionScheme::CyclicRepetitionScheme(std::size_t num_workers,
                                               std::size_t load,
                                               stats::Rng& rng)
    : Scheme(data::cyclic_windows(num_workers, load)), load_(load) {
  COUPON_ASSERT_MSG(load >= 1 && load <= num_workers,
                    "CR load must satisfy 1 <= r <= n");
  constexpr int kMaxTries = 16;
  for (int attempt = 0; attempt < kMaxTries; ++attempt) {
    auto b = try_build_coding_matrix(num_workers, load, rng);
    if (b) {
      b_ = std::move(*b);
      return;
    }
  }
  COUPON_ASSERT_MSG(false, "CR coding matrix construction failed "
                               << kMaxTries << " times (vanishing-probability "
                               << "event); check the RNG");
}

void CyclicRepetitionScheme::encode_into(std::size_t worker,
                                         const UnitGradientSource& source,
                                         std::span<const double> w,
                                         comm::Message& out) const {
  COUPON_ASSERT(worker < num_workers());
  COUPON_ASSERT(source.num_units() == num_units());
  const std::size_t dim = source.dim();
  out.meta.assign(1, static_cast<std::int64_t>(worker));
  // The payload tail doubles as unit-gradient scratch (trimmed before
  // returning), so a warm encode allocates nothing. A caching source's
  // `unit_gradient_view` ignores the scratch and serves its own slab row.
  out.payload.assign(2 * dim, 0.0);
  const std::span<double> acc{out.payload.data(), dim};
  const std::span<double> scratch{out.payload.data() + dim, dim};
  for (std::size_t unit : placement_.worker(worker)) {
    const std::span<const double> g = source.unit_gradient_view(unit, w, scratch);
    linalg::axpy(b_(worker, unit), g, acc);
  }
  out.payload.resize(dim);
}

std::unique_ptr<Collector> CyclicRepetitionScheme::make_collector() const {
  return std::make_unique<CrCollector>(*this,
                                       num_workers() - stragglers_tolerated());
}

bool CyclicRepetitionScheme::decoding_coefficients_into(
    std::span<const std::size_t> workers, CrDecodeWorkspace& ws) const {
  const std::size_t n = num_workers();
  if (workers.size() < n - stragglers_tolerated()) {
    return false;
  }
  // Solve B_W^T a = 1: an n x |W| overdetermined system with an exact
  // solution by construction (1 is in the row space of B_W).
  ws.bwt.resize(n, workers.size());
  for (std::size_t k = 0; k < workers.size(); ++k) {
    COUPON_ASSERT(workers[k] < n);
    for (std::size_t j = 0; j < n; ++j) {
      ws.bwt(j, k) = b_(workers[k], j);
    }
  }
  ws.ones.assign(n, 1.0);
  ws.coeffs.resize(workers.size());
  return linalg::lstsq_into(ws.bwt, ws.ones, ws.coeffs, ws.lstsq);
}

}  // namespace coupon::core
