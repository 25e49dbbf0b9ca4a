// Exact per-link loads under complete exchange (all-to-all personalized
// communication), Definition 4 of the paper:
//
//   E(l) = sum over ordered pairs p != q of |C_{p->l->q}| / |C_{p->q}|.
//
// `reference_loads` implements the definition literally through the Router
// interface (enumerate every path of every pair) — the oracle the fast
// paths are tested against.  The specialized functions compute identical
// numbers without enumerating path sets:
//
//   odr_loads      O((|P|/|H|)·|P| · d + |E|)         ring difference arrays
//   udr_loads      O((|P|/|H|)·|P| · s·2^s + |E|)     ring difference arrays
//   adaptive_loads O((|P|/|H|)·|P| · corridor + |E|)  multinomial path
//                                                     fractions
//   LoadDelta      O((|R|+|A|)·|P| · pair + |E|)      per proposal that
//                                                     removes R and adds A
//
// (pair: d for ODR, s·2^s for UDR.)  LoadDelta keeps one set's exact ODR or
// UDR sums for the placement searches and scores a change from the pairs it
// touches: 4(|P|-1) pairs to move one processor instead of |P|(|P|-1).
//
// H is the placement's translation stabilizer {h : P + h = P} (see
// stabilizer() in placement.h).  All three routers commute with
// translation, so the load is H-periodic: each function evaluates one
// source per H-coset of P against every destination, then sums the link
// array over each H-coset of nodes and writes the sum back to every member.
// A linear placement (|H| = k^(d-1)) evaluates |P|/|H| = 1 source, a random
// one (|H| = 1) all of P, through the same code.
//
// ODR and UDR share one kernel.  Every correction segment is an arc of one
// 1-D ring, so it is added as O(1) updates to an i64 difference array in
// units of 1/(2·d!) (every ODR and UDR segment weight is a whole number of
// them), then one prefix-sum pass over all links, the integer fold over H
// and one division per link yield the correctly rounded exact load.  Each
// router has one per-pair definition, shared with LoadDelta, as is the
// prefix pass.
// `threads` partitions the sources over workers with private integer
// arrays, so the result is bit-identical for every thread count.
//
// udr_loads_enumerated keeps the s!-enumeration variant alive as a second
// independent implementation for cross-checking.

#pragma once

#include <memory>
#include <vector>

#include "src/load/load_map.h"
#include "src/placement/placement.h"
#include "src/routing/router.h"

namespace tp {

/// Literal Definition 4 via Router::paths().  Exact but slow; intended for
/// tests and tiny instances.
LoadMap reference_loads(const Torus& torus, const Placement& p,
                        const Router& router);

/// Loads under Ordered Dimensional Routing (Section 6), computed with
/// `threads` workers (1 = inline on the caller).
LoadMap odr_loads(const Torus& torus, const Placement& p,
                  TieBreak tie = TieBreak::PositiveOnly, i32 threads = 1);

/// Loads under ODR correcting dimensions in a custom order (a permutation
/// of 0..d-1).  odr_loads(t, p, tie) is the identity-order special case.
LoadMap odr_loads_ordered(const Torus& torus, const Placement& p,
                          const SmallVec<i32>& order,
                          TieBreak tie = TieBreak::PositiveOnly,
                          i32 threads = 1);

/// Loads under Unordered Dimensional Routing (Section 7), computed with
/// subset weights: correcting dimension j after the subset S of the other
/// differing dimensions happens in |S|!(s-1-|S|)!/s! of all orders.
LoadMap udr_loads(const Torus& torus, const Placement& p,
                  TieBreak tie = TieBreak::PositiveOnly, i32 threads = 1);

/// Loads under UDR by explicit enumeration of all s! correction orders.
/// Same result as udr_loads; exists as an independent cross-check.
LoadMap udr_loads_enumerated(const Torus& torus, const Placement& p,
                             TieBreak tie = TieBreak::PositiveOnly);

/// Loads under fully adaptive minimal routing: each pair spreads one unit
/// of traffic over all its minimal paths uniformly.  Summed in doubles, in
/// a fixed order: with a trivial stabilizer source by source, otherwise
/// representatives first and then coset by coset, which may differ from the
/// source-by-source sum in the last bits.
LoadMap adaptive_loads(const Torus& torus, const Placement& p);

/// The value total_load() must equal for any minimal router: the sum of
/// Lee distances over all ordered processor pairs.
double expected_total_load(const Torus& torus, const Placement& p);

/// The exact ODR or UDR (identity order, positive-only ties, as
/// measure_loads) link sums of one processor set, kept current as the set
/// changes: the placement searches' evaluator.  The sums are the ring
/// kernel's i64 array in units of 1/(2·d!) over every ordered pair of the
/// set.  A proposal "remove `out`, add `in`" subtracts the pairs touching
/// `out` over the current set and adds the pairs touching `in` over the new
/// one, through the same per-pair code and prefix pass as odr_loads and
/// udr_loads, into one difference array; adding its prefix sums to the
/// current sums yields the candidate's sums and their maximum in one pass.
/// Moving one processor of n evaluates 4(n-1) pairs and O(|E|) links
/// instead of n(n-1) pairs, the stabilizer, the fold and a LoadMap.
///
/// emax() is the maximum sum divided by the unit, the same double as
/// measure_loads(...).max_load() of the set (division by a positive
/// constant is monotone).
class LoadDelta {
 public:
  /// Sums of `nodes` (distinct node ids of `torus`) under ODR or UDR.
  static LoadDelta odr(const Torus& torus, const std::vector<NodeId>& nodes);
  static LoadDelta udr(const Torus& torus, const std::vector<NodeId>& nodes);

  LoadDelta(LoadDelta&&) noexcept;
  ~LoadDelta();

  /// E_max of the current set.
  double emax() const;

  /// E_max of the current set with `out` (distinct members) removed and
  /// `in` (distinct non-members) added.  The set stays as it is until
  /// commit(); a later propose() replaces this one.
  double propose(const std::vector<NodeId>& out,
                 const std::vector<NodeId>& in);

  /// Makes the last proposal the current set.
  void commit();

  /// Ordered pairs evaluated, and ties among them (as router.tie_breaks
  /// counts), since construction: the caller records them once.
  i64 pairs_evaluated() const;
  i64 tie_breaks() const;

 private:
  struct Impl;
  explicit LoadDelta(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace tp
