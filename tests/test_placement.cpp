// Tests for placements (Definitions 2, 10; Section 5): sizes, membership,
// uniformity, the equivalences the paper states, and the translation
// stabilizer the load kernels fold over.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/placement/modular.h"
#include "src/placement/placement.h"
#include "src/placement/uniformity.h"
#include "src/util/error.h"

namespace tp {
namespace {

TEST(Placement, ConstructionDeduplicatesAndSorts) {
  Torus t(2, 3);
  Placement p(t, {4, 2, 4, 0}, "manual");
  EXPECT_EQ(p.size(), 3);
  EXPECT_EQ(p.nodes(), (std::vector<NodeId>{0, 2, 4}));
  EXPECT_TRUE(p.contains(2));
  EXPECT_FALSE(p.contains(1));
  EXPECT_EQ(p.name(), "manual");
}

TEST(Placement, RejectsForeignNodesAndTori) {
  Torus t(2, 3);
  EXPECT_THROW(Placement(t, {9}, "bad"), Error);
  Placement p(t, {0}, "ok");
  Torus other(2, 4);
  EXPECT_THROW(p.check_torus(other), Error);
}

TEST(LinearPlacement, SizeIsKToTheDMinus1) {
  for (i32 d = 1; d <= 4; ++d)
    for (i32 k = 2; k <= 6; ++k) {
      Torus t(d, k);
      EXPECT_EQ(linear_placement(t).size(), powi(k, d - 1))
          << "d=" << d << " k=" << k;
    }
}

TEST(LinearPlacement, MembersSatisfyTheEquation) {
  Torus t(3, 5);
  const i32 c = 2;
  Placement p = linear_placement(t, c);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    i64 sum = 0;
    for (i32 d = 0; d < 3; ++d) sum += t.coord_of(n, d);
    EXPECT_EQ(p.contains(n), mod_norm(sum, 5) == c);
  }
}

TEST(LinearPlacement, ResidueClassesPartitionTheTorus) {
  Torus t(2, 4);
  std::set<NodeId> all;
  for (i32 c = 0; c < 4; ++c) {
    const Placement cls = linear_placement(t, c);
    for (NodeId n : cls.nodes()) EXPECT_TRUE(all.insert(n).second);
  }
  EXPECT_EQ(static_cast<i64>(all.size()), t.num_nodes());
}

TEST(LinearPlacement, GeneralCoefficients) {
  // Definition 10 with coefficients (1, 2) over Z_5: still k^{d-1} nodes
  // because coefficient 1 is coprime to 5.
  Torus t(2, 5);
  Placement p = linear_placement(t, SmallVec<i32>{1, 2}, 0);
  EXPECT_EQ(p.size(), 5);
  for (NodeId n : p.nodes())
    EXPECT_EQ(mod_norm(t.coord_of(n, 0) + 2 * t.coord_of(n, 1), 5), 0);
}

TEST(LinearPlacement, RequiresACoprimeCoefficient) {
  Torus t(2, 4);
  EXPECT_THROW(linear_placement(t, SmallVec<i32>{2, 2}, 0), Error);
  // (2, 3): 3 is coprime to 4, fine.
  EXPECT_EQ(linear_placement(t, SmallVec<i32>{2, 3}, 0).size(), 4);
}

TEST(LinearPlacement, RequiresUniformRadix) {
  Torus t(Radices{3, 4});
  EXPECT_THROW(linear_placement(t), Error);
}

TEST(LinearPlacement, IsUniform) {
  for (i32 d = 2; d <= 4; ++d) {
    Torus t(d, 4);
    EXPECT_TRUE(is_uniform(t, linear_placement(t))) << "d=" << d;
  }
}

TEST(MultipleLinearPlacement, SizeIsTTimesKToTheDMinus1) {
  Torus t(3, 4);
  for (i32 tt = 1; tt <= 4; ++tt)
    EXPECT_EQ(multiple_linear_placement(t, tt).size(), tt * 16);
}

TEST(MultipleLinearPlacement, IsUnionOfResidueClasses) {
  Torus t(2, 5);
  Placement p = multiple_linear_placement(t, 3);
  std::set<NodeId> expected;
  for (i32 c = 0; c < 3; ++c) {
    const Placement cls = linear_placement(t, c);
    expected.insert(cls.nodes().begin(), cls.nodes().end());
  }
  EXPECT_EQ(std::set<NodeId>(p.nodes().begin(), p.nodes().end()), expected);
}

TEST(MultipleLinearPlacement, TEqualsKIsFullPopulation) {
  Torus t(2, 4);
  EXPECT_EQ(multiple_linear_placement(t, 4).size(), t.num_nodes());
}

TEST(MultipleLinearPlacement, BoundsChecked) {
  Torus t(2, 4);
  EXPECT_THROW(multiple_linear_placement(t, 0), Error);
  EXPECT_THROW(multiple_linear_placement(t, 5), Error);
}

TEST(MultipleLinearPlacement, IsUniform) {
  Torus t(3, 4);
  for (i32 tt = 1; tt <= 3; ++tt)
    EXPECT_TRUE(is_uniform(t, multiple_linear_placement(t, tt)));
}

TEST(ShiftedDiagonal, EquivalentToLinearPlacement) {
  // The paper notes the shifted diagonal placement of Blaum et al. is a
  // special case of linear placements.
  for (i32 d = 2; d <= 3; ++d)
    for (i32 k = 3; k <= 5; ++k) {
      Torus t(d, k);
      for (i32 shift = 0; shift < k; ++shift) {
        EXPECT_EQ(shifted_diagonal_placement(t, shift).nodes(),
                  linear_placement(t, shift).nodes())
            << "d=" << d << " k=" << k << " shift=" << shift;
      }
    }
}

TEST(FullPopulation, ContainsEveryNode) {
  Torus t(2, 4);
  Placement p = full_population(t);
  EXPECT_EQ(p.size(), t.num_nodes());
  for (NodeId n = 0; n < t.num_nodes(); ++n) EXPECT_TRUE(p.contains(n));
}

TEST(RandomPlacement, SizeAndDeterminism) {
  Torus t(3, 4);
  Placement a = random_placement(t, 10, 99);
  Placement b = random_placement(t, 10, 99);
  Placement c = random_placement(t, 10, 100);
  EXPECT_EQ(a.size(), 10);
  EXPECT_EQ(a.nodes(), b.nodes());
  EXPECT_NE(a.nodes(), c.nodes());  // overwhelmingly likely
}

TEST(RandomPlacement, CoversTheTorusAtFullSize) {
  Torus t(2, 3);
  EXPECT_EQ(random_placement(t, 9, 1).size(), 9);
  EXPECT_THROW(random_placement(t, 10, 1), Error);
}

TEST(ClusteredPlacement, TakesAPrefixOfNodeIds) {
  Torus t(2, 4);
  Placement p = clustered_placement(t, 5);
  EXPECT_EQ(p.nodes(), (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(ClusteredPlacement, IsNotUniform) {
  Torus t(2, 4);
  EXPECT_FALSE(is_uniform(t, clustered_placement(t, 4)));
}

TEST(SubtorusPlacement, OneLayer) {
  Torus t(3, 4);
  Placement p = subtorus_placement(t, 1, 2);
  EXPECT_EQ(p.size(), 16);
  for (NodeId n : p.nodes()) EXPECT_EQ(t.coord_of(n, 1), 2);
  // Uniform along the other dimensions but not along dim 1.
  EXPECT_TRUE(is_uniform_along(t, p, 0));
  EXPECT_FALSE(is_uniform_along(t, p, 1));
  EXPECT_TRUE(is_uniform_along(t, p, 2));
}

TEST(Uniformity, SubtorusCountsSumToPlacementSize) {
  Torus t(3, 4);
  Placement p = random_placement(t, 20, 5);
  for (i32 d = 0; d < 3; ++d) {
    const auto counts = subtorus_counts(t, p, d);
    i64 sum = 0;
    for (i64 c : counts) sum += c;
    EXPECT_EQ(sum, p.size());
  }
}

TEST(Uniformity, UniformDimensionsOfLinearPlacement) {
  Torus t(3, 5);
  EXPECT_EQ(uniform_dimensions(t, linear_placement(t)).size(), 3u);
}

TEST(Uniformity, LinearPlacementLayerCounts) {
  // Each principal subtorus holds exactly k^{d-2} processors (the paper's
  // remark in Section 5).
  Torus t(3, 4);
  Placement p = linear_placement(t);
  for (i32 d = 0; d < 3; ++d)
    for (i64 c : subtorus_counts(t, p, d)) EXPECT_EQ(c, 4);
}

// --- translation stabilizer ------------------------------------------------

/// The node a + h reaches (coordinate-wise modulo each radix).
NodeId translate(const Torus& t, NodeId a, NodeId h) {
  const Coord ac = t.coord(a), hc = t.coord(h);
  Coord c = ac;
  for (std::size_t i = 0; i < c.size(); ++i)
    c[i] = (ac[i] + hc[i]) % t.radices()[i];
  return t.node_id(c);
}

/// Brute force: every node h with P + h ⊆ P.
std::vector<NodeId> stabilizer_oracle(const Torus& t, const Placement& p) {
  std::vector<NodeId> out;
  for (NodeId h = 0; h < t.num_nodes(); ++h) {
    bool fixes = true;
    for (const NodeId a : p.nodes())
      fixes = fixes && p.contains(translate(t, a, h));
    if (fixes) out.push_back(h);
  }
  return out;
}

struct Case {
  Torus torus;
  Placement placement;
};

std::vector<Case> stabilizer_cases() {
  std::vector<Case> out;
  const Torus t4(3, 4), t5(2, 5), t6(2, 6), t10(2, 10);
  const Torus mixed(Radices{4, 6}), mixed3(Radices{3, 4, 2});
  out.push_back({t4, linear_placement(t4)});
  out.push_back({t4, linear_placement(t4, SmallVec<i32>{1, 2, 3}, 1)});
  out.push_back({t6, linear_placement(t6, SmallVec<i32>{3, 1}, 2)});
  for (i32 t = 1; t <= 4; ++t)
    out.push_back({t4, multiple_linear_placement(t4, t)});
  for (i32 t = 1; t <= 6; ++t)
    out.push_back({t6, multiple_linear_placement(t6, t)});
  out.push_back({t5, shifted_diagonal_placement(t5, 3)});
  out.push_back({t10, perfect_lee_placement(t10)});
  out.push_back({mixed, modular_placement(mixed, SmallVec<i32>{1, 1}, 2)});
  out.push_back({mixed, diagonal_placement_mixed(mixed, 0, 1)});
  out.push_back({mixed3, subtorus_placement(mixed3, 1, 3)});
  out.push_back({mixed3, full_population(mixed3)});
  out.push_back({t4, clustered_placement(t4, 20)});
  out.push_back({t4, Placement(t4, {}, "empty")});
  out.push_back({t4, Placement(t4, {37}, "single")});
  // Two residue classes of the all-ones form that are not consecutive.
  std::vector<NodeId> classes;
  for (NodeId n = 0; n < t6.num_nodes(); ++n)
    if ((t6.coord_of(n, 0) + t6.coord_of(n, 1)) % 6 % 3 == 1)
      classes.push_back(n);
  out.push_back({t6, Placement(t6, classes, "residues 1,4")});
  for (u64 seed = 1; seed <= 6; ++seed)
    out.push_back({mixed3, random_placement(mixed3, 12, seed)});
  return out;
}

TEST(Stabilizer, MatchesBruteForce) {
  for (const Case& c : stabilizer_cases()) {
    // Every translation fixes the empty set; it gets H = {0} instead
    // (KnownOrders), there being no coset to fold.
    if (c.placement.size() == 0) continue;
    const Stabilizer st = stabilizer(c.torus, c.placement);
    ASSERT_FALSE(st.group.empty()) << c.placement.name();
    EXPECT_EQ(st.group.front(), 0) << c.placement.name();
    std::vector<NodeId> sorted = st.group;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, stabilizer_oracle(c.torus, c.placement))
        << c.placement.name();
  }
}

TEST(Stabilizer, IsAGroupThatFixesThePlacement) {
  for (const Case& c : stabilizer_cases()) {
    const Stabilizer st = stabilizer(c.torus, c.placement);
    const std::set<NodeId> group(st.group.begin(), st.group.end());
    EXPECT_EQ(group.size(), st.group.size()) << c.placement.name();
    // A finite subset closed under addition is a subgroup.
    for (const NodeId a : st.group)
      for (const NodeId b : st.group)
        EXPECT_TRUE(group.count(translate(c.torus, a, b)))
            << c.placement.name();
    for (const NodeId h : st.group) {
      std::vector<NodeId> moved;
      for (const NodeId a : c.placement.nodes())
        moved.push_back(translate(c.torus, a, h));
      std::sort(moved.begin(), moved.end());
      EXPECT_EQ(moved, c.placement.nodes()) << c.placement.name();
    }
  }
}

TEST(Stabilizer, OneLowestRepresentativePerCoset) {
  for (const Case& c : stabilizer_cases()) {
    const Stabilizer st = stabilizer(c.torus, c.placement);
    EXPECT_TRUE(std::is_sorted(st.reps.begin(), st.reps.end()))
        << c.placement.name();
    EXPECT_EQ(static_cast<i64>(st.reps.size() * st.group.size()),
              c.placement.size())
        << c.placement.name();
    // The cosets r + H are disjoint, lie in P, cover it, and r is the
    // lowest node of its coset.
    std::set<NodeId> covered;
    for (const NodeId r : st.reps) {
      for (const NodeId h : st.group) {
        const NodeId member = translate(c.torus, r, h);
        EXPECT_TRUE(c.placement.contains(member)) << c.placement.name();
        EXPECT_TRUE(covered.insert(member).second) << c.placement.name();
        EXPECT_LE(r, member) << c.placement.name();
      }
    }
    EXPECT_EQ(static_cast<i64>(covered.size()), c.placement.size())
        << c.placement.name();
  }
}

TEST(Stabilizer, KnownOrders) {
  const Torus t(3, 5);
  EXPECT_EQ(stabilizer(t, linear_placement(t)).group.size(), 25u);
  EXPECT_EQ(stabilizer(t, multiple_linear_placement(t, 3)).group.size(), 25u);
  EXPECT_EQ(stabilizer(t, multiple_linear_placement(t, 3)).reps.size(), 3u);
  EXPECT_EQ(stabilizer(t, subtorus_placement(t, 0, 2)).group.size(), 25u);
  EXPECT_EQ(stabilizer(t, full_population(t)).group.size(), 125u);
  EXPECT_EQ(stabilizer(t, full_population(t)).reps,
            (std::vector<NodeId>{0}));
  const Stabilizer empty = stabilizer(t, Placement(t, {}, "empty"));
  EXPECT_EQ(empty.group, (std::vector<NodeId>{0}));
  EXPECT_TRUE(empty.reps.empty());
  const Stabilizer one = stabilizer(t, Placement(t, {7}, "one"));
  EXPECT_EQ(one.group, (std::vector<NodeId>{0}));
  EXPECT_EQ(one.reps, (std::vector<NodeId>{7}));
  EXPECT_THROW(stabilizer(Torus(2, 4), linear_placement(t)), Error);
}

TEST(Stabilizer, RandomPlacementsAreAsymmetric) {
  for (const Radices& radices :
       {Radices{8, 8, 8}, Radices{12, 12}, Radices{4, 5, 6}}) {
    const Torus t(radices);
    for (u64 seed = 1; seed <= 10; ++seed) {
      const Placement p = random_placement(t, 12 + static_cast<i64>(seed) * 7,
                                           seed);
      const Stabilizer st = stabilizer(t, p);
      EXPECT_EQ(st.group.size(), 1u) << p.name();
      EXPECT_EQ(st.reps, p.nodes()) << p.name();
    }
  }
}

}  // namespace
}  // namespace tp
