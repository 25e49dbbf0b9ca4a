// Differential tests for the ring difference-array load kernel behind
// odr_loads / odr_loads_ordered / udr_loads (src/load/complete_exchange.cpp).
// Seeded random placements on mixed-radix tori (d = 1..4, radices 2 and 3
// included: parallel links and wrap-around arcs), both tie-breaks and random
// ODR correction orders, checked against
//   * the literal Definition 4 oracle, bit for bit (ODR),
//   * the exact rational analyzer rounded once per link (UDR),
//   * the sum of Lee distances (total-load conservation),
//   * itself at 1, 2 and 4 threads, byte for byte,
// and for the exact values of the load.pairs_evaluated / router.tie_breaks
// counters it records.
//
// The kernel evaluates one source per coset of the placement's translation
// stabilizer and folds the rest in.  The symmetric families (linear,
// multiple-linear, shifted diagonal, modular, subtorus, full population,
// mixed-radix diagonals and seeded unions of cosets of random subgroups)
// are checked the same way, adaptive_loads against the oracle to 1e-13
// relative.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "src/load/complete_exchange.h"
#include "src/load/exact_loads.h"
#include "src/obs/registry.h"
#include "src/placement/modular.h"
#include "src/placement/placement.h"
#include "src/routing/adaptive.h"
#include "src/routing/odr.h"
#include "src/routing/udr.h"
#include "src/util/prng.h"

namespace tp {
namespace {

bool same_bytes(const LoadMap& a, const LoadMap& b) {
  return a.raw().size() == b.raw().size() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.raw().size() * sizeof(double)) == 0;
}

/// One seeded instance: a random torus of 1..4 dimensions (radices 2..6,
/// at most ~500 nodes), a random placement on it and a random ODR order.
struct Instance {
  Torus torus;
  Placement placement;
  SmallVec<i32> order;
  std::string name;
};

Instance make_instance(u64 seed) {
  Xoshiro256SS rng(seed);
  const auto d = static_cast<std::size_t>(1 + rng.below(4));
  Radices radices(d, 2);
  i64 nodes = 1;
  for (std::size_t i = 0; i < d; ++i) {
    const i64 room = 500 / nodes;
    radices[i] = static_cast<i32>(
        2 + rng.below(static_cast<u64>(std::min<i64>(room, 6) - 1)));
    nodes *= radices[i];
  }
  const Torus torus(radices);
  const i64 size = 2 + static_cast<i64>(rng.below(
                           static_cast<u64>(std::min<i64>(nodes, 40) - 1)));
  SmallVec<i32> order;
  for (std::size_t i = 0; i < d; ++i) order.push_back(static_cast<i32>(i));
  for (std::size_t i = d; i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  std::ostringstream name;
  name << "T";
  for (std::size_t i = 0; i < d; ++i) name << (i ? "x" : "") << radices[i];
  name << " |P|=" << size << " seed=" << seed;
  return Instance{torus, random_placement(torus, size, seed), order,
                  name.str()};
}

constexpr TieBreak kTies[] = {TieBreak::PositiveOnly,
                              TieBreak::BothDirections};

TEST(LoadKernel, OdrEqualsDefinition4OracleBitForBit) {
  for (u64 seed = 1; seed <= 40; ++seed) {
    const Instance c = make_instance(seed);
    for (const TieBreak tie : kTies) {
      const LoadMap fast =
          odr_loads_ordered(c.torus, c.placement, c.order, tie);
      const LoadMap ref =
          reference_loads(c.torus, c.placement, OdrRouter(c.order, tie));
      EXPECT_TRUE(same_bytes(fast, ref)) << c.name;
      EXPECT_EQ(fast.total_load(),
                expected_total_load(c.torus, c.placement))
          << c.name;
    }
  }
}

TEST(LoadKernel, UdrEqualsExactRationalsRoundedOnce) {
  for (u64 seed = 101; seed <= 140; ++seed) {
    const Instance c = make_instance(seed);
    for (const TieBreak tie : kTies) {
      const LoadMap fast = udr_loads(c.torus, c.placement, tie);
      const ExactLoadMap exact = udr_loads_exact(c.torus, c.placement, tie);
      EXPECT_TRUE(same_bytes(fast, exact.to_load_map(c.torus))) << c.name;
      // A double sum of the rounded links carries summation error, so the
      // total is checked exactly in the kernel's units of 1/(2·d!): each
      // link is within an ulp of a whole number of them.
      const i64 unit = 2 * factorial(c.torus.dims());
      i64 units = 0;
      for (const double v : fast.raw())
        units += std::llround(v * static_cast<double>(unit));
      EXPECT_EQ(units, static_cast<i64>(expected_total_load(
                           c.torus, c.placement)) * unit)
          << c.name;
    }
  }
}

TEST(LoadKernel, EveryThreadCountIsByteIdentical) {
  // Large enough that 2 and 4 workers really fan out: 260·259 pairs is
  // past four times the kernel's per-worker cutover.
  for (const Radices& radices :
       {Radices{8, 8, 8}, Radices{4, 5, 4, 4}, Radices{20, 20}}) {
    const Torus torus(radices);
    const Placement p = random_placement(torus, 260, 7);
    // Every node a source: the kernel evaluates 260·259 pairs.
    ASSERT_EQ(stabilizer(torus, p).group.size(), 1u);
    SmallVec<i32> reversed;
    for (i32 dim = torus.dims(); dim > 0; --dim) reversed.push_back(dim - 1);
    for (const TieBreak tie : kTies) {
      const LoadMap odr = odr_loads(torus, p, tie, 1);
      const LoadMap odr_rev = odr_loads_ordered(torus, p, reversed, tie, 1);
      const LoadMap udr = udr_loads(torus, p, tie, 1);
      for (const i32 threads : {2, 4}) {
        EXPECT_TRUE(same_bytes(odr, odr_loads(torus, p, tie, threads)))
            << torus.num_nodes() << " nodes, threads=" << threads;
        EXPECT_TRUE(same_bytes(
            odr_rev, odr_loads_ordered(torus, p, reversed, tie, threads)))
            << torus.num_nodes() << " nodes, threads=" << threads;
        EXPECT_TRUE(same_bytes(udr, udr_loads(torus, p, tie, threads)))
            << torus.num_nodes() << " nodes, threads=" << threads;
      }
    }
  }
}

/// Ordered pairs x dimensions whose correction is a tie — one
/// router.tie_breaks per (pair, tied dimension), as allowed_dirs() counts.
i64 tie_count(const Torus& torus, const Placement& p) {
  i64 ties = 0;
  for (NodeId a : p.nodes())
    for (NodeId b : p.nodes())
      for (i32 dim = 0; dim < torus.dims(); ++dim)
        if (a != b && torus.shortest_way(dim, torus.coord_of(a, dim),
                                         torus.coord_of(b, dim)) == Way::Tie)
          ++ties;
  return ties;
}

TEST(LoadKernel, CountersAreExactForEveryRouterAndThreadCount) {
  obs::MetricsRegistry& reg = obs::registry();
  const Torus torus(Radices{6, 6, 8});  // 260·259 pairs: four workers
  const Placement p = random_placement(torus, 260, 11);
  ASSERT_EQ(stabilizer(torus, p).group.size(), 1u);
  const i64 pairs = p.size() * (p.size() - 1);
  const i64 ties = tie_count(torus, p);
  ASSERT_GT(ties, 0);
  for (const i32 threads : {1, 4}) {
    for (int router = 0; router < 2; ++router) {
      reg.set_enabled(true);
      reg.reset();
      if (router == 0) {
        odr_loads(torus, p, TieBreak::BothDirections, threads);
      } else {
        udr_loads(torus, p, TieBreak::BothDirections, threads);
      }
      const obs::MetricsSnapshot snap = reg.snapshot();
      reg.set_enabled(false);
      reg.reset();
      const i64* evaluated = snap.counter("load.pairs_evaluated");
      const i64* tie_breaks = snap.counter("router.tie_breaks");
      ASSERT_NE(evaluated, nullptr);
      ASSERT_NE(tie_breaks, nullptr);
      EXPECT_EQ(*evaluated, pairs) << "threads=" << threads;
      EXPECT_EQ(*tie_breaks, ties) << "threads=" << threads;
    }
  }
}

/// The node a + h reaches (coordinate-wise modulo each radix).
NodeId translate(const Torus& torus, NodeId a, NodeId h) {
  const Coord ac = torus.coord(a), hc = torus.coord(h);
  Coord c = ac;
  for (std::size_t i = 0; i < c.size(); ++i)
    c[i] = (ac[i] + hc[i]) % torus.radices()[i];
  return torus.node_id(c);
}

/// Seeded union of cosets of a random subgroup: a random torus of 1..3
/// dimensions (radices 2..6, at most 72 nodes), the subgroup generated by
/// one or two random translations, and each of its cosets kept with
/// probability 1/2 (the first when none is).  A generator coordinate is 0,
/// k_i/p for the smallest prime p dividing k_i, or uniform, a third of the
/// time each, so that small subgroups with many cosets are common.
Instance coset_union(u64 seed) {
  Xoshiro256SS rng(seed);
  const auto d = static_cast<std::size_t>(1 + rng.below(3));
  Radices radices(d, 2);
  i64 nodes = 1;
  for (std::size_t i = 0; i < d; ++i) {
    const i64 room = 72 / nodes;
    radices[i] = static_cast<i32>(
        2 + rng.below(static_cast<u64>(std::min<i64>(room, 6) - 1)));
    nodes *= radices[i];
  }
  const Torus torus(radices);
  std::vector<NodeId> gens;
  for (u64 g = 0, count = 1 + rng.below(2); g < count; ++g) {
    Coord gen(d, 0);
    for (std::size_t i = 0; i < d; ++i) {
      i32 p = 2;
      while (radices[i] % p != 0) ++p;
      const u64 pick = rng.below(3);
      gen[i] = pick == 0 ? 0
               : pick == 1
                   ? radices[i] / p
                   : static_cast<i32>(rng.below(static_cast<u64>(radices[i])));
    }
    gens.push_back(torus.node_id(gen));
  }
  std::vector<NodeId> group{0};
  std::vector<bool> in_group(static_cast<std::size_t>(nodes), false);
  in_group[0] = true;
  for (std::size_t i = 0; i < group.size(); ++i)
    for (const NodeId g : gens) {
      const NodeId next = translate(torus, group[i], g);
      if (in_group[static_cast<std::size_t>(next)]) continue;
      in_group[static_cast<std::size_t>(next)] = true;
      group.push_back(next);
    }
  std::vector<NodeId> kept;
  std::vector<bool> seen(static_cast<std::size_t>(nodes), false);
  for (NodeId u = 0; u < nodes; ++u) {
    if (seen[static_cast<std::size_t>(u)]) continue;
    const bool keep = rng.below(2) == 0 || (u + 1 == nodes && kept.empty());
    for (const NodeId h : group) {
      const NodeId member = translate(torus, u, h);
      seen[static_cast<std::size_t>(member)] = true;
      if (keep) kept.push_back(member);
    }
  }
  if (kept.empty()) kept = group;
  std::ostringstream name;
  name << "T";
  for (std::size_t i = 0; i < d; ++i) name << (i ? "x" : "") << radices[i];
  name << " cosets of |H'|=" << group.size() << " |P|=" << kept.size()
       << " seed=" << seed;
  SmallVec<i32> order;
  for (std::size_t i = d; i > 0; --i) order.push_back(static_cast<i32>(i - 1));
  return Instance{torus, Placement(torus, kept, "cosets"), order, name.str()};
}

/// Every symmetric family the kernel folds, plus seeded coset unions.
std::vector<Instance> symmetric_instances() {
  std::vector<Instance> out;
  const auto add = [&out](const Torus& torus, const Placement& p) {
    SmallVec<i32> order;
    for (i32 dim = torus.dims(); dim > 0; --dim) order.push_back(dim - 1);
    out.push_back(Instance{torus, p, order, p.name()});
  };
  const Torus t4(3, 4), t5(3, 5), t6(2, 6), t3(4, 3);
  add(t4, linear_placement(t4, SmallVec<i32>{1, 2, 3}, 1));
  add(t5, linear_placement(t5, SmallVec<i32>{2, 0, 1}, 3));
  add(t6, linear_placement(t6, SmallVec<i32>{3, 1}, 2));
  for (i32 t = 1; t <= 4; ++t) add(t4, multiple_linear_placement(t4, t));
  for (i32 t = 1; t <= 6; ++t) add(t6, multiple_linear_placement(t6, t));
  add(t3, multiple_linear_placement(t3, 2));
  add(t5, shifted_diagonal_placement(t5, 2));
  add(t6, shifted_diagonal_placement(t6, 5));
  const Torus t10(2, 10);
  add(t10, perfect_lee_placement(t10));
  add(t4, modular_placement(t4, SmallVec<i32>{1, 1, 0}, 2, 1));
  const Torus mixed(Radices{4, 6});
  add(mixed, modular_placement(mixed, SmallVec<i32>{1, 1}, 2));
  add(mixed, diagonal_placement_mixed(mixed, 0, 1));
  const Torus mixed3(Radices{3, 4, 2});
  add(mixed3, diagonal_placement_mixed(mixed3, 1));
  add(mixed3, subtorus_placement(mixed3, 1, 3));
  add(mixed3, full_population(mixed3));
  add(t4, subtorus_placement(t4, 2, 1));
  add(t4, full_population(t4));
  for (u64 seed = 1; seed <= 40; ++seed) out.push_back(coset_union(seed));
  return out;
}

/// |a - b| <= tol·|b| on every link.
bool within_relative(const LoadMap& a, const LoadMap& b, double tol) {
  for (std::size_t e = 0; e < b.raw().size(); ++e)
    if (std::abs(a.raw()[e] - b.raw()[e]) > tol * std::abs(b.raw()[e]))
      return false;
  return true;
}

TEST(LoadKernel, SymmetricPlacementsEqualTheOracles) {
  i64 folded = 0, several_cosets = 0;
  for (const Instance& c : symmetric_instances()) {
    const Stabilizer st = stabilizer(c.torus, c.placement);
    if (st.group.size() > 1) ++folded;
    if (st.group.size() > 1 && st.reps.size() > 1) ++several_cosets;
    for (const TieBreak tie : kTies) {
      EXPECT_TRUE(same_bytes(
          odr_loads_ordered(c.torus, c.placement, c.order, tie),
          reference_loads(c.torus, c.placement, OdrRouter(c.order, tie))))
          << c.name;
      EXPECT_TRUE(same_bytes(
          udr_loads(c.torus, c.placement, tie),
          udr_loads_exact(c.torus, c.placement, tie).to_load_map(c.torus)))
          << c.name;
    }
    EXPECT_TRUE(within_relative(
        adaptive_loads(c.torus, c.placement),
        reference_loads(c.torus, c.placement, AdaptiveMinimalRouter()),
        1e-13))
        << c.name;
  }
  // The fold must run often, and often over more than one representative.
  EXPECT_GE(folded, 50);
  EXPECT_GE(several_cosets, 15);
}

TEST(LoadKernel, SymmetricPlacementsCountEveryPairAndTie) {
  obs::MetricsRegistry& reg = obs::registry();
  for (const Instance& c : symmetric_instances()) {
    const i64 pairs = c.placement.size() * (c.placement.size() - 1);
    const i64 ties = tie_count(c.torus, c.placement);
    for (int router = 0; router < 3; ++router) {
      reg.set_enabled(true);
      reg.reset();
      if (router == 0) {
        odr_loads(c.torus, c.placement, TieBreak::BothDirections);
      } else if (router == 1) {
        udr_loads(c.torus, c.placement, TieBreak::BothDirections);
      } else {
        adaptive_loads(c.torus, c.placement);
      }
      const obs::MetricsSnapshot snap = reg.snapshot();
      reg.set_enabled(false);
      reg.reset();
      const i64* evaluated = snap.counter("load.pairs_evaluated");
      ASSERT_NE(evaluated, nullptr) << c.name;
      EXPECT_EQ(*evaluated, pairs) << c.name << " router " << router;
      if (router == 2) continue;  // the adaptive analyzer counts no ties
      const i64* tie_breaks = snap.counter("router.tie_breaks");
      EXPECT_EQ(tie_breaks == nullptr ? 0 : *tie_breaks, ties)
          << c.name << " router " << router;
    }
  }
}

TEST(LoadKernel, OddRadicesRecordNoTieCounter) {
  obs::MetricsRegistry& reg = obs::registry();
  const Torus torus(Radices{3, 5});
  const Placement p = full_population(torus);
  reg.set_enabled(true);
  reg.reset();
  udr_loads(torus, p);
  const obs::MetricsSnapshot snap = reg.snapshot();
  reg.set_enabled(false);
  reg.reset();
  // The name may survive reset() from an earlier call; no value may land.
  const i64* ties = snap.counter("router.tie_breaks");
  if (ties != nullptr) {
    EXPECT_EQ(*ties, 0);
  }
  ASSERT_NE(snap.counter("load.pairs_evaluated"), nullptr);
  EXPECT_EQ(*snap.counter("load.pairs_evaluated"), 15 * 14);
}

TEST(LoadKernel, SingleProcessorAndTinyRings) {
  const Torus ring(Radices{2});
  const Placement one(ring, {1}, "one");
  EXPECT_EQ(odr_loads(ring, one).max_load(), 0.0);
  EXPECT_EQ(udr_loads(ring, one).max_load(), 0.0);
  // k = 2: both directions reach the same neighbour over parallel links.
  const Placement both = full_population(ring);
  const LoadMap split = odr_loads(ring, both, TieBreak::BothDirections);
  for (EdgeId e = 0; e < ring.num_directed_edges(); ++e)
    EXPECT_EQ(split[e], 0.5) << ring.edge_str(e);
  const LoadMap pos = odr_loads(ring, both);
  EXPECT_EQ(pos[ring.edge_id(0, 0, Dir::Pos)], 1.0);
  EXPECT_EQ(pos[ring.edge_id(0, 0, Dir::Neg)], 0.0);
}

}  // namespace
}  // namespace tp
