// Per-link communication loads (Definitions 4 and 5 of the paper).
//
// A LoadMap holds E(l) for every directed link l of a torus under the
// complete-exchange scenario.  Loads are rationals with small denominators
// (products of path-set sizes).  The ODR and UDR analyzers sum them exactly
// in integer units of 1/(2·d!) and divide once, so each of their links holds
// the correctly rounded double of the exact rational; the adaptive analyzer
// and reference_loads() accumulate in double, accurate to ~1e-12 at the
// sizes this library targets.  The adaptive analyzer evaluates one source
// per coset of the placement's translation stabilizer and folds the rest in
// (complete_exchange.h), so on a symmetric placement its doubles are summed
// in another order than reference_loads() and agree to ~1e-13 relative,
// not bit for bit.

#pragma once

#include <vector>

#include "src/torus/torus.h"

namespace tp {

/// Dense per-directed-link load table.
class LoadMap {
 public:
  explicit LoadMap(const Torus& torus)
      : loads_(static_cast<std::size_t>(torus.num_directed_edges()), 0.0),
        dims_(torus.dims()),
        num_nodes_(torus.num_nodes()) {}

  /// Adopts precomputed per-link loads, indexed by EdgeId.
  LoadMap(const Torus& torus, std::vector<double> loads);

  void add(EdgeId e, double w) { loads_.at(static_cast<std::size_t>(e)) += w; }
  double operator[](EdgeId e) const {
    return loads_.at(static_cast<std::size_t>(e));
  }

  i64 num_edges() const { return static_cast<i64>(loads_.size()); }

  /// E_max (Definition 5).
  double max_load() const;

  /// All links achieving the maximum (within tol).
  std::vector<EdgeId> argmax(double tol = 1e-9) const;

  /// Sum of E(l) over all links.  Equals the sum of (expected) path lengths
  /// over ordered processor pairs — see expected_total_load().
  double total_load() const;

  /// Mean load over all links (used links and idle ones alike).
  double mean_load() const;

  /// Number of links with load > tol.
  i64 num_loaded_edges(double tol = 1e-12) const;

  /// Maximum load among the links of one dimension only.
  double max_load_in_dim(const Torus& torus, i32 dim) const;

  /// Histogram of loads with the given number of equal-width bins over
  /// [0, max_load()].  Returns bin counts; empty map yields all zeros.
  std::vector<i64> histogram(std::size_t bins) const;

  /// Largest absolute difference against another map (cross-check tool).
  double max_abs_diff(const LoadMap& other) const;

  const std::vector<double>& raw() const { return loads_; }

 private:
  std::vector<double> loads_;
  i32 dims_;
  i64 num_nodes_;
};

}  // namespace tp
