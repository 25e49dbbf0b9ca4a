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
#include "src/placement/placement.h"
#include "src/routing/odr.h"
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
