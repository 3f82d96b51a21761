#pragma once

/// \file placement.hpp
/// Data placement: which examples each worker stores and processes.
///
/// This is the bipartite graph G of Section II — data vertices on one
/// side, worker vertices on the other, with an edge (d_j, k_i) when
/// worker i computes the partial gradient g_j. Definition 1's
/// computational load r is the maximum worker degree.

#include <cstddef>
#include <vector>

namespace coupon::data {

/// Per-worker example assignment (the sets G_i of the paper).
class Placement {
 public:
  Placement() = default;

  /// Creates a placement for `num_workers` workers over `num_examples`
  /// examples with all G_i initially empty.
  Placement(std::size_t num_workers, std::size_t num_examples)
      : num_examples_(num_examples), assignments_(num_workers) {}

  std::size_t num_workers() const { return assignments_.size(); }
  std::size_t num_examples() const { return num_examples_; }

  /// Mutable/const access to G_i.
  std::vector<std::size_t>& worker(std::size_t i) { return assignments_[i]; }
  const std::vector<std::size_t>& worker(std::size_t i) const {
    return assignments_[i];
  }

  /// Definition 1: the computational load r = max_i |G_i|.
  std::size_t computational_load() const;

  /// Total stored examples Σ_i |G_i| (the redundancy factor is this / m).
  std::size_t total_assigned() const;

  /// True when every example is assigned to at least one worker
  /// (the paper's requirement N(k_1) ∪ ... ∪ N(k_n) = {d_1, ..., d_m}).
  bool covers_all_examples() const;

  /// Number of workers processing each example (data-vertex degrees).
  std::vector<std::size_t> example_multiplicities() const;

 private:
  std::size_t num_examples_ = 0;
  std::vector<std::vector<std::size_t>> assignments_;
};

/// The cyclic placement of gradient coding (Tandon et al.): over m = n
/// units, worker i holds the window {i, i+1, ..., i+r-1 mod n}, so every
/// unit is replicated on exactly r consecutive workers.
Placement cyclic_windows(std::size_t num_workers, std::size_t load);

}  // namespace coupon::data
