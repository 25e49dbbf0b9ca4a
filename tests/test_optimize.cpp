// Tests for the placement search (E15): exhaustive optimum on tiny tori,
// annealing sanity, and the optimality of linear placements among all
// same-size placements where enumeration is feasible.
//
// The searches score ODR and UDR candidates through LoadDelta.  Its E_max
// is checked bit for bit against measure_loads after every proposal, and
// both searches against a copy of the full-recompute loops they replaced
// (same nodes, E_max and evaluated count), as are the counters they record.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <vector>

#include "src/core/optimize.h"
#include "src/load/complete_exchange.h"
#include "src/load/formulas.h"
#include "src/obs/registry.h"
#include "src/util/error.h"
#include "src/util/prng.h"

namespace tp {
namespace {

u64 bits(double v) { return std::bit_cast<u64>(v); }

/// E_max of a node set through the full Definition 4 path.
double measured(const Torus& torus, const std::vector<NodeId>& nodes,
                RouterKind kind) {
  return measure_loads(torus, Placement(torus, nodes, "candidate"), kind)
      .max_load();
}

// ---- The full-recompute searches, as they were before delta scoring ----

SearchResult oracle_exhaustive(const Torus& torus, i64 size,
                               RouterKind kind) {
  const i64 n = torus.num_nodes();
  std::vector<NodeId> pick(static_cast<std::size_t>(size));
  std::iota(pick.begin(), pick.end(), NodeId{0});
  std::vector<NodeId> best_nodes = pick;
  double best = measured(torus, pick, kind);
  i64 evaluated = 1;
  const auto m = static_cast<std::size_t>(size);
  for (;;) {
    std::size_t i = m;
    while (i > 0) {
      --i;
      if (pick[i] < n - static_cast<i64>(m - i)) break;
      if (i == 0)
        return {Placement(torus, best_nodes, "oracle"), best, evaluated};
    }
    ++pick[i];
    for (std::size_t j = i + 1; j < m; ++j) pick[j] = pick[j - 1] + 1;
    const double emax = measured(torus, pick, kind);
    ++evaluated;
    if (emax < best) {
      best = emax;
      best_nodes = pick;
    }
  }
}

SearchResult oracle_anneal(const Torus& torus, i64 size, RouterKind kind,
                           i64 iterations, u64 seed) {
  Xoshiro256SS rng(seed);
  std::vector<NodeId> all(static_cast<std::size_t>(torus.num_nodes()));
  std::iota(all.begin(), all.end(), NodeId{0});
  for (i64 i = 0; i < size; ++i) {
    const auto j = static_cast<std::size_t>(i) +
                   static_cast<std::size_t>(rng.below(
                       static_cast<u64>(torus.num_nodes() - i)));
    std::swap(all[static_cast<std::size_t>(i)], all[j]);
  }
  const auto head = [&] {
    return std::vector<NodeId>(all.begin(), all.begin() + size);
  };
  double current = measured(torus, head(), kind);
  std::vector<NodeId> best_nodes = head();
  double best = current;
  i64 evaluated = 1;
  const double t0 = std::max(1.0, current * 0.25);
  const double decay =
      std::pow(0.01 / t0, 1.0 / static_cast<double>(iterations));
  double temperature = t0;
  for (i64 it = 0; it < iterations; ++it) {
    const auto inside =
        static_cast<std::size_t>(rng.below(static_cast<u64>(size)));
    const auto outside =
        static_cast<std::size_t>(size) +
        static_cast<std::size_t>(
            rng.below(static_cast<u64>(torus.num_nodes() - size)));
    std::swap(all[inside], all[outside]);
    const double candidate = measured(torus, head(), kind);
    ++evaluated;
    const double delta = candidate - current;
    if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature)) {
      current = candidate;
      if (current < best) {
        best = current;
        best_nodes = head();
      }
    } else {
      std::swap(all[inside], all[outside]);
    }
    temperature *= decay;
  }
  return {Placement(torus, best_nodes, "oracle"), best, evaluated};
}

void expect_same_search(const SearchResult& got, const SearchResult& want) {
  EXPECT_EQ(got.placement.nodes(), want.placement.nodes());
  EXPECT_EQ(bits(got.emax), bits(want.emax));
  EXPECT_EQ(got.evaluated, want.evaluated);
}

/// `count` distinct elements of `pool`, drawn without replacement.
std::vector<NodeId> draw(Xoshiro256SS& rng, std::vector<NodeId> pool,
                         std::size_t count) {
  for (std::size_t i = 0; i < count; ++i)
    std::swap(pool[i], pool[i + static_cast<std::size_t>(rng.below(
                                     static_cast<u64>(pool.size() - i)))]);
  pool.resize(count);
  return pool;
}

LoadDelta make_delta(const Torus& torus, RouterKind kind,
                     const std::vector<NodeId>& nodes) {
  return kind == RouterKind::Odr ? LoadDelta::odr(torus, nodes)
                                 : LoadDelta::udr(torus, nodes);
}

/// Ordered pairs x dimensions whose correction is a tie — one
/// router.tie_breaks per (pair, tied dimension).
i64 tie_count(const Torus& torus, const std::vector<NodeId>& nodes) {
  i64 ties = 0;
  for (NodeId a : nodes)
    for (NodeId b : nodes)
      for (i32 dim = 0; dim < torus.dims(); ++dim)
        if (a != b && torus.shortest_way(dim, torus.coord_of(a, dim),
                                         torus.coord_of(b, dim)) == Way::Tie)
          ++ties;
  return ties;
}

TEST(LoadDelta, EveryProposalEqualsMeasureLoads) {
  // Single moves as the anneal makes them; every fourth step removes and
  // adds 0..3 nodes each (unequal counts change the set's size), like an
  // exhaustive step.  Half the proposals are committed.
  const std::vector<Torus> tori = {Torus(2, 12), Torus(3, 5),
                                   Torus(Radices{3, 4, 6}), Torus(4, 3)};
  u64 seed = 1;
  for (const Torus& torus : tori) {
    for (const RouterKind kind : {RouterKind::Odr, RouterKind::Udr}) {
      Xoshiro256SS rng(++seed);
      std::vector<NodeId> set = random_placement(torus, 12, seed).nodes();
      LoadDelta delta = make_delta(torus, kind, set);
      ASSERT_EQ(bits(delta.emax()), bits(measured(torus, set, kind)));
      for (int step = 0; step < 150; ++step) {
        std::vector<NodeId> empty;
        for (NodeId v = 0; v < torus.num_nodes(); ++v)
          if (std::find(set.begin(), set.end(), v) == set.end())
            empty.push_back(v);
        const bool multi = step % 4 == 3;
        const auto removed = multi ? std::min<std::size_t>(
                                         rng.below(4), set.size() - 2)
                                   : 1;
        const auto added = multi ? std::min<std::size_t>(rng.below(4),
                                                         empty.size())
                                 : 1;
        const std::vector<NodeId> out = draw(rng, set, removed);
        const std::vector<NodeId> in = draw(rng, empty, added);
        std::vector<NodeId> candidate;
        for (const NodeId q : set)
          if (std::find(out.begin(), out.end(), q) == out.end())
            candidate.push_back(q);
        candidate.insert(candidate.end(), in.begin(), in.end());

        ASSERT_EQ(bits(delta.propose(out, in)),
                  bits(measured(torus, candidate, kind)))
            << "radices " << torus.radices().size() << " step " << step;
        if (rng.below(2) == 0) {
          delta.commit();
          set = candidate;
          ASSERT_EQ(bits(delta.emax()), bits(measured(torus, set, kind)));
        }
      }
    }
  }
}

TEST(LoadDelta, RejectsInvalidProposalsAndStaysUsable) {
  const Torus torus(2, 5);
  const std::vector<NodeId> set = {0, 6, 12, 18, 24};
  LoadDelta delta = LoadDelta::udr(torus, set);
  EXPECT_THROW(delta.commit(), Error);                 // nothing proposed
  EXPECT_THROW(delta.propose({1}, {2}), Error);        // 1 is not a member
  EXPECT_THROW(delta.propose({0}, {6}), Error);        // 6 stays a member
  EXPECT_THROW(delta.propose({0, 0}, {1, 2}), Error);  // repeated
  EXPECT_THROW(delta.propose({0}, {1, 1}), Error);     // repeated
  EXPECT_THROW(delta.propose({0}, {25}), Error);       // off the torus
  EXPECT_THROW(LoadDelta::odr(torus, {3, 3}), Error);
  // The failed proposals left no trace.
  EXPECT_EQ(bits(delta.propose({0}, {1})),
            bits(measured(torus, {1, 6, 12, 18, 24}, RouterKind::Udr)));
  EXPECT_EQ(bits(delta.emax()), bits(measured(torus, set, RouterKind::Udr)));
}

TEST(LoadDelta, CountsThePairsAndTiesItEvaluates) {
  const Torus torus(2, 6);  // even radix: distance-3 corrections tie
  const std::vector<NodeId> set = random_placement(torus, 7, 3).nodes();
  for (const RouterKind kind : {RouterKind::Odr, RouterKind::Udr}) {
    LoadDelta delta = make_delta(torus, kind, set);
    EXPECT_EQ(delta.pairs_evaluated(), 7 * 6);
    EXPECT_EQ(delta.tie_breaks(), tie_count(torus, set));
    ASSERT_GT(delta.tie_breaks(), 0);
    // Moving set[0] to an empty node evaluates the pairs touching set[0]
    // in the old set and the pairs touching the new node in the new set.
    NodeId empty = 0;
    while (std::find(set.begin(), set.end(), empty) != set.end()) ++empty;
    std::vector<NodeId> rest(set.begin() + 1, set.end());
    std::vector<NodeId> next = rest;
    next.push_back(empty);
    const i64 before = delta.tie_breaks();
    delta.propose({set[0]}, {empty});
    EXPECT_EQ(delta.pairs_evaluated(), 7 * 6 + 4 * 6);
    EXPECT_EQ(delta.tie_breaks() - before,
              tie_count(torus, set) - tie_count(torus, rest) +
                  tie_count(torus, next) - tie_count(torus, rest));
  }
}

TEST(Anneal, MatchesTheFullRecomputeSearch) {
  struct Case {
    Torus torus;
    i64 size;
    RouterKind kind;
    i64 iterations;
    u64 seed;
  };
  const std::vector<Case> cases = {
      {Torus(2, 12), 12, RouterKind::Udr, 5000, 7},  // optimize's shape
      {Torus(2, 12), 12, RouterKind::Udr, 5000, 7919},
      {Torus(2, 12), 12, RouterKind::Odr, 2000, 1},
      {Torus(2, 12), 12, RouterKind::Udr, 2000, 2},
      {Torus(3, 5), 8, RouterKind::Udr, 1000, 3},
      {Torus(3, 5), 8, RouterKind::Odr, 1000, 4},
      {Torus(Radices{3, 4, 6}), 9, RouterKind::Odr, 1000, 5},
      {Torus(Radices{3, 4, 6}), 9, RouterKind::Udr, 1000, 6},
      {Torus(4, 3), 9, RouterKind::Udr, 800, 8},
      {Torus(4, 3), 9, RouterKind::Odr, 800, 9},
      {Torus(2, 6), 6, RouterKind::Odr, 400, 11},
      {Torus(2, 4), 4, RouterKind::Udr, 300, 3},
      {Torus(2, 6), 6, RouterKind::Adaptive, 150, 12},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "seed " << c.seed);
    expect_same_search(
        anneal_placement(c.torus, c.size, c.kind, c.iterations, c.seed),
        oracle_anneal(c.torus, c.size, c.kind, c.iterations, c.seed));
  }
}

TEST(Exhaustive, MatchesTheFullRecomputeSearch) {
  for (const RouterKind kind : {RouterKind::Odr, RouterKind::Udr}) {
    for (const i32 k : {4, 5}) {
      const Torus torus(2, k);
      SCOPED_TRACE(testing::Message() << "k " << k);
      expect_same_search(exhaustive_best_placement(torus, k, kind),
                         oracle_exhaustive(torus, k, kind));
    }
  }
  const Torus t3(2, 3);
  expect_same_search(exhaustive_best_placement(t3, 3, RouterKind::Adaptive),
                     oracle_exhaustive(t3, 3, RouterKind::Adaptive));
  const Torus cube(3, 2);
  expect_same_search(exhaustive_best_placement(cube, 3, RouterKind::Udr),
                     oracle_exhaustive(cube, 3, RouterKind::Udr));
}

TEST(Anneal, RecordsThePairsItEvaluatesOnce) {
  obs::MetricsRegistry& reg = obs::registry();
  const Torus torus(2, 6);
  const i64 n = 6, iterations = 50;
  for (const RouterKind kind : {RouterKind::Odr, RouterKind::Udr}) {
    reg.set_enabled(true);
    reg.reset();
    anneal_placement(torus, n, kind, iterations, 5);
    const obs::MetricsSnapshot snap = reg.snapshot();
    reg.set_enabled(false);
    reg.reset();
    const i64* pairs = snap.counter("load.pairs_evaluated");
    ASSERT_NE(pairs, nullptr);
    EXPECT_EQ(*pairs, n * (n - 1) + iterations * 4 * (n - 1));
    EXPECT_NE(snap.counter("router.tie_breaks"), nullptr);
  }
}

TEST(Exhaustive, LinearPlacementIsOptimalOnT3_2) {
  // Every 3-subset of T_3^2's nodes: none beats the linear placement.
  Torus t(2, 3);
  const SearchResult best =
      exhaustive_best_placement(t, 3, RouterKind::Odr);
  const double linear = odr_loads(t, linear_placement(t)).max_load();
  EXPECT_EQ(best.evaluated, binomial(9, 3));
  EXPECT_LE(best.emax, linear + 1e-9);
  EXPECT_GE(best.emax, blaum_lower_bound(3, 2) - 1e-9);
  // ... and in fact it cannot do better: linear achieves the optimum.
  EXPECT_NEAR(best.emax, linear, 1e-9);
}

TEST(Exhaustive, LinearPlacementIsOptimalOnT4_2) {
  Torus t(2, 4);
  const SearchResult best =
      exhaustive_best_placement(t, 4, RouterKind::Odr);
  const double linear = odr_loads(t, linear_placement(t)).max_load();
  EXPECT_EQ(best.evaluated, binomial(16, 4));
  EXPECT_NEAR(best.emax, linear, 1e-9);  // 2.0: the diagonal is optimal
}

TEST(Exhaustive, FindsStrictlyBetterThanClustered) {
  Torus t(2, 4);
  const SearchResult best =
      exhaustive_best_placement(t, 4, RouterKind::Odr);
  const double clustered =
      odr_loads(t, clustered_placement(t, 4)).max_load();
  EXPECT_LT(best.emax, clustered);
}

TEST(Exhaustive, GuardsAgainstBlowup) {
  Torus t(3, 4);  // C(64, 16) is astronomical
  EXPECT_THROW(exhaustive_best_placement(t, 16, RouterKind::Odr), Error);
  Torus small(2, 3);
  EXPECT_THROW(exhaustive_best_placement(small, 1, RouterKind::Odr), Error);
}

TEST(Anneal, ReachesTheExhaustiveOptimumOnT4_2) {
  Torus t(2, 4);
  const SearchResult exact =
      exhaustive_best_placement(t, 4, RouterKind::Odr);
  const SearchResult annealed =
      anneal_placement(t, 4, RouterKind::Odr, 800, 7);
  EXPECT_NEAR(annealed.emax, exact.emax, 1e-9);
  EXPECT_EQ(annealed.placement.size(), 4);
}

TEST(Anneal, NeverBeatsTheLowerBoundAndIsDeterministic) {
  Torus t(2, 6);
  const SearchResult a = anneal_placement(t, 6, RouterKind::Odr, 400, 11);
  const SearchResult b = anneal_placement(t, 6, RouterKind::Odr, 400, 11);
  EXPECT_EQ(a.placement.nodes(), b.placement.nodes());
  EXPECT_GE(a.emax, blaum_lower_bound(6, 2) - 1e-9);
  // The annealed result is at least as good as a random placement.
  const double random = odr_loads(t, random_placement(t, 6, 11)).max_load();
  EXPECT_LE(a.emax, random + 1e-9);
}

TEST(Anneal, CanSearchUnderUdrToo) {
  Torus t(2, 4);
  const SearchResult result =
      anneal_placement(t, 4, RouterKind::Udr, 300, 3);
  EXPECT_GT(result.emax, 0.0);
  EXPECT_LE(result.emax,
            udr_loads(t, linear_placement(t)).max_load() + 1e-9);
}

TEST(Anneal, FullTorusIsTheOnlyCandidate) {
  Torus t(2, 3);
  for (const RouterKind kind :
       {RouterKind::Odr, RouterKind::Udr, RouterKind::Adaptive}) {
    const SearchResult result = anneal_placement(t, 9, kind, 10, 1);
    EXPECT_EQ(result.evaluated, 1);
    EXPECT_EQ(result.placement.size(), 9);
    EXPECT_EQ(bits(result.emax),
              bits(measure_loads(t, full_population(t), kind).max_load()));
  }
}

TEST(Anneal, ValidatesArguments) {
  Torus t(2, 4);
  EXPECT_THROW(anneal_placement(t, 1, RouterKind::Odr, 10, 1), Error);
  EXPECT_THROW(anneal_placement(t, 4, RouterKind::Odr, 0, 1), Error);
  EXPECT_THROW(anneal_placement(t, 99, RouterKind::Odr, 10, 1), Error);
}

}  // namespace
}  // namespace tp
