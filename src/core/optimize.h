// Searching the placement space: is the linear placement actually the
// best processor arrangement of its size?
//
// The paper proves the linear placement is *asymptotically* optimal
// (E_max = Theta(|P|), and no placement of its size can do better than
// Omega(|P|)); whether its constant is the best possible for concrete
// (d, k) is left open.  This module searches:
//
//   * exhaustive_best_placement — enumerates every size-m subset of the
//     torus (guarded; feasible for C(N, m) up to a few hundred thousand)
//     and returns a placement minimizing E_max.
//   * anneal_placement — simulated annealing with single-processor moves
//     for instances beyond enumeration.
//
// Both evaluate the exact E_max of Definition 4 for the chosen router.
// Under ODR and UDR a candidate is scored as a delta: LoadDelta
// (load/complete_exchange.h) keeps the current set's exact integer link
// sums and evaluates only the pairs a move touches, 4(|P|-1) for one
// relocated processor, so each candidate's E_max is the same double
// measure_loads gives.  Adaptive loads are order-dependent double sums
// that a delta would change in the last bits (and with them the accept
// decisions), so under Adaptive every candidate is measured whole.
// Each search records load.pairs_evaluated and router.tie_breaks for the
// pairs its delta evaluator went through, once at its end.

#pragma once

#include "src/core/planner.h"
#include "src/placement/placement.h"

namespace tp {

struct SearchResult {
  Placement placement;
  double emax = 0.0;
  i64 evaluated = 0;  ///< placements whose loads were computed
};

/// Exhaustive minimum over all placements of the given size.  Throws if
/// C(num_nodes, size) exceeds `max_candidates` (default 500k).
SearchResult exhaustive_best_placement(const Torus& torus, i64 size,
                                       RouterKind kind,
                                       i64 max_candidates = 500000);

/// Simulated annealing from a random start: each move relocates one
/// processor to a random empty node; worse moves are accepted with
/// probability exp(-delta / T), T decaying geometrically.  Deterministic
/// given the seed.  Returns the best placement seen.  With size equal to
/// the torus size the full placement is the only candidate: it is returned
/// with evaluated = 1.
SearchResult anneal_placement(const Torus& torus, i64 size, RouterKind kind,
                              i64 iterations, u64 seed);

}  // namespace tp
