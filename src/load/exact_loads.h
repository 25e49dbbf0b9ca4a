// Exact (rational) per-link loads.
//
// The analyzers in complete_exchange.h return doubles (the ODR/UDR kernel
// rounds each exact load once); these variants keep Definition 4 in exact
// rational arithmetic, making equality claims (conservation, closed-form
// matches, oracle agreement) airtight.
// They are slower and only intended for validation-sized instances.

#pragma once

#include <vector>

#include "src/load/load_map.h"
#include "src/placement/placement.h"
#include "src/routing/router.h"
#include "src/util/rational.h"

namespace tp {

/// Dense per-directed-link rational load table.
class ExactLoadMap {
 public:
  explicit ExactLoadMap(const Torus& torus)
      : loads_(static_cast<std::size_t>(torus.num_directed_edges())) {}

  void add(EdgeId e, const Rational& w) {
    loads_.at(static_cast<std::size_t>(e)) += w;
  }
  const Rational& operator[](EdgeId e) const {
    return loads_.at(static_cast<std::size_t>(e));
  }

  Rational max_load() const;
  Rational total_load() const;

  /// Converts to the double representation (for comparison with the fast
  /// analyzers).
  LoadMap to_load_map(const Torus& torus) const;

 private:
  std::vector<Rational> loads_;
};

/// Exact loads under canonical/tie-splitting ODR.
ExactLoadMap odr_loads_exact(const Torus& torus, const Placement& p,
                             TieBreak tie = TieBreak::PositiveOnly);

/// Exact loads under UDR (subset-weight identity with rational weights).
ExactLoadMap udr_loads_exact(const Torus& torus, const Placement& p,
                             TieBreak tie = TieBreak::PositiveOnly);

/// Exact total that any minimal router must produce: the sum of Lee
/// distances over ordered processor pairs (an integer).
Rational expected_total_load_exact(const Torus& torus, const Placement& p);

}  // namespace tp
