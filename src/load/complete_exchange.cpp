#include "src/load/complete_exchange.h"

#include <algorithm>
#include <limits>
#include <variant>
#include <vector>

#include "src/obs/obs.h"
#include "src/routing/odr.h"
#include "src/routing/udr.h"
#include "src/util/combinatorics.h"
#include "src/util/error.h"
#include "src/util/parallel.h"

namespace tp {

namespace {

/// Minimum evaluated source-destination pairs per worker before the ring
/// kernel fans out.  An ODR pair costs ~20 ns (a few branch-free
/// difference-array updates per dimension), a UDR pair a few times that;
/// spawning and joining a worker and reducing its private array costs tens
/// of µs.  16384 pairs give each worker ~10x its own overhead: 64 random
/// processors on T8^3 (64·63 = 4032 pairs) stay serial, 256 (256·255) take
/// three workers.  A linear placement evaluates a single source and never
/// fans out.
constexpr i64 kMinPairsPerWorker = 16384;

/// Every integer of magnitude below 2^53 converts to double exactly.
constexpr i64 kExactInDouble = i64{1} << 53;

/// Ring geometry, decoded once per call.  A ring is the k nodes that differ
/// only in one dimension.  Link ids are node·2d + 2·dim + (0 for +, 1 for -),
/// so the link of ring coordinate x on the ring whose coordinate-0 link is
/// `ring` has id ring + x·edge_stride[dim]: a difference array laid out like
/// the LoadMap needs no extra slots.
struct Rings {
  explicit Rings(const Torus& torus)
      : num_nodes(torus.num_nodes()),
        per_node(2 * torus.dims()),
        unit(2 * factorial(torus.dims())) {
    for (i32 dim = 0; dim < torus.dims(); ++dim) {
      radix.push_back(torus.radix(dim));
      stride.push_back(torus.stride(dim));
      edge_stride.push_back(stride.back() * per_node);
    }
  }

  i64 num_nodes, per_node;
  /// Accumulation units per unit of load: 1/(2·d!) divides every ODR and
  /// UDR segment weight.
  i64 unit;
  SmallVec<i64> radix, stride, edge_stride;
};

/// One arc of a correction: `len` links of dimension `dim` in direction
/// slot `slot` (2·dim + dir bit) starting at ring coordinate `lo`.
struct Arc {
  std::size_t dim;
  i64 slot, lo, len;
};

/// The full correction of one dimension from ring coordinate a to b != a:
/// one arc, or two carrying half the weight each when a tie is split both
/// ways.  A Pos arc covers the + links of coordinates a..b-1, a Neg arc
/// the - links of b+1..a (cyclically).
struct Correction {
  /// Counts the tie in `ties` once, as allowed_dirs() does.  The common
  /// single-arc case is selected without branches: the direction is
  /// data-dependent noise to a branch predictor.
  Correction(const Rings& g, std::size_t dim, i64 a, i64 b, TieBreak tie,
             i64& ties) {
    const i64 k = g.radix[dim];
    const i64 fwd = b >= a ? b - a : b - a + k;
    const i64 bwd = k - fwd;
    const auto d2 = static_cast<i64>(2 * dim);
    const i64 neg_lo = b + 1 == k ? 0 : b + 1;
    const bool pos = fwd <= bwd;  // a tie takes + first
    arcs[0] = Arc{dim, pos ? d2 : d2 + 1, pos ? a : neg_lo, pos ? fwd : bwd};
    arcs[1] = Arc{dim, d2 + 1, neg_lo, bwd};
    if (fwd != bwd) return;
    ++ties;
    if (tie == TieBreak::BothDirections) split = true;
  }

  /// Adds `w` (even) units on the ring through node `base` (coordinate 0 in
  /// this dimension).
  void add(i64* diff, const Rings& g, i64 base, i64 w) const {
    if (!split) {
      add_arc(diff, g, base, arcs[0], w);
      return;
    }
    add_arc(diff, g, base, arcs[0], w / 2);
    add_arc(diff, g, base, arcs[1], w / 2);
  }

  /// +w where the arc starts and -w one past its end; an arc that reaches
  /// or wraps past coordinate k-1 also restarts at 0.  The three updates
  /// always happen (the restart adds 0 when the arc does not wrap), so
  /// there is no branch to mispredict.
  static void add_arc(i64* diff, const Rings& g, i64 base, const Arc& arc,
                      i64 w) {
    const i64 k = g.radix[arc.dim];
    const i64 es = g.edge_stride[arc.dim];
    const i64 ring = base * g.per_node + arc.slot;
    const i64 end = arc.lo + arc.len;
    const i64 wrap = end >= k ? 1 : 0;
    diff[ring + arc.lo * es] += w;
    diff[ring] += wrap * w;
    diff[ring + (end - wrap * k) * es] -= w;
  }

  Arc arcs[2];
  bool split = false;
};

/// ODR's per-pair segments: `(diff, src, dst, node, sign, ties)` adds `sign`
/// (+1 or -1) times the correction segments of the ordered pair src -> dst
/// (coordinate arrays; `node` is src's id) to a difference array and counts
/// the pair's ties.  ring_loads and LoadDelta both call it.
struct OdrPairs {
  OdrPairs(const Torus& torus, const SmallVec<i32>& order, TieBreak t)
      : g(torus), ord(OdrRouter(order, t).correction_order(torus)), tie(t) {}

  void operator()(i64* diff, const i64* src, const i64* dst, i64 node,
                  i64 sign, i64& ties) const {
    // Entering dimension ord[idx], the packet sits at dst in the
    // dimensions corrected before it and at src in the rest; that state
    // does not depend on any tie direction taken earlier.
    for (const i32 o : ord) {
      const auto dim = static_cast<std::size_t>(o);
      if (src[dim] == dst[dim]) continue;
      const i64 base = node - src[dim] * g.stride[dim];
      Correction(g, dim, src[dim], dst[dim], tie, ties)
          .add(diff, g, base, sign * g.unit);
      node = base + dst[dim] * g.stride[dim];
    }
  }

  Rings g;
  SmallVec<i32> ord;
  TieBreak tie;
};

/// UDR's per-pair segments, called like OdrPairs.  Correcting dimension j
/// after the subset S of the other s-1 differing dimensions happens in
/// m!(s-1-m)!/s! of all s! orders (m = |S|): in units of 1/(2·d!) that is
/// m!(s-1-m)!·(d!/s!)·2.
struct UdrPairs {
  UdrPairs(const Torus& torus, TieBreak t) : g(torus), tie(t) {
    const auto d = static_cast<std::size_t>(torus.dims());
    for (std::size_t s = 1; s <= d; ++s)
      for (std::size_t m = 0; m < s; ++m)
        order_units[s][m] = factorial(static_cast<i64>(m)) *
                            factorial(static_cast<i64>(s - 1 - m)) *
                            (g.unit / factorial(static_cast<i64>(s)));
  }

  void operator()(i64* diff, const i64* src, const i64* dst, i64 src_node,
                  i64 sign, i64& ties) const {
    SmallVec<std::size_t> diff_dims;
    for (std::size_t dim = 0; dim < g.radix.size(); ++dim)
      if (src[dim] != dst[dim]) diff_dims.push_back(dim);
    const std::size_t s = diff_dims.size();
    for (const std::size_t j : diff_dims) {
      const Correction c(g, j, src[j], dst[j], tie, ties);
      // The j-segment enters with the dimensions of the subset already at
      // dst: its ring base moves by (dst_i - src_i)·stride_i per corrected
      // dimension i.  base[mask] lists every subset.
      i64 base[std::size_t{1} << (kMaxDims - 1)];
      base[0] = src_node - src[j] * g.stride[j];
      std::size_t count = 1;
      for (const std::size_t i : diff_dims) {
        if (i == j) continue;
        for (std::size_t m = 0; m < count; ++m)
          base[count + m] = base[m] + (dst[i] - src[i]) * g.stride[i];
        count *= 2;
      }
      for (std::size_t mask = 0; mask < count; ++mask)
        c.add(diff, g, base[mask],
              sign * order_units[s][static_cast<std::size_t>(
                         popcount32(static_cast<std::uint32_t>(mask)))]);
    }
  }

  Rings g;
  TieBreak tie;
  i64 order_units[kMaxDims + 1][kMaxDims] = {};
};

/// Turns a difference array into link sums in place: one prefix pass along
/// every ring.
void prefix_rings(const Rings& g, std::vector<i64>& acc) {
  for (std::size_t dim = 0; dim < g.radix.size(); ++dim) {
    const i64 k = g.radix[dim];
    const i64 stride = g.stride[dim];
    const auto es = static_cast<std::size_t>(g.edge_stride[dim]);
    for (i64 hi = 0; hi < g.num_nodes; hi += stride * k) {
      for (i64 lo = 0; lo < stride; ++lo) {
        auto e = static_cast<std::size_t>((hi + lo) * g.per_node) + 2 * dim;
        for (i64 x = 1; x < k; ++x, e += es) {
          acc[e + es] += acc[e];
          acc[e + es + 1] += acc[e + 1];
        }
      }
    }
  }
}

/// A pair puts at most one unit of load (g.unit units) on a link, so no
/// link or partial sum of n processors exceeds n(n-1)·g.unit: below 2^53
/// the final conversion is exact and the one division correctly rounded.
void require_exact(const Rings& g, i64 n) {
  TP_REQUIRE(n < (i64{1} << 26) && n * (n - 1) < kExactInDouble / g.unit,
             "placement too large for exact fixed-point loads");
}

/// Node coordinates, decoded once: d entries per node, in `nodes` order.
std::vector<i64> decode(const Torus& torus, const std::vector<NodeId>& nodes) {
  std::vector<i64> coords;
  coords.reserve(nodes.size() * static_cast<std::size_t>(torus.dims()));
  for (const NodeId node : nodes)
    for (const i32 x : torus.coord(node)) coords.push_back(x);
  return coords;
}

/// Completes a link array computed from the coset representatives' sources
/// only and converts it to loads.  With P + H = P every router here
/// commutes with translation, so a source r + h loads link l + h exactly as
/// r loads l, and the full load is E(l) = sum over h in H of F(l + h), F
/// being the representatives' part.  Every H-coset of nodes is labelled,
/// the link array is summed per coset and link slot in increasing node
/// order (a fixed order for a double array), `finish` turns each sum into
/// a load once, and the load is written to every member.  With H = {0}
/// this is `finish` applied to every link.
template <typename T, typename Finish>
std::vector<double> fold_cosets(const Torus& torus,
                                const std::vector<NodeId>& group,
                                const std::vector<T>& links, Finish&& finish) {
  std::vector<double> loads(links.size());
  if (group.size() == 1) {
    for (std::size_t e = 0; e < links.size(); ++e) loads[e] = finish(links[e]);
    return loads;
  }
  TP_PROF_PHASE("ring.fold");
  const auto d = static_cast<std::size_t>(torus.dims());
  const auto per_node = 2 * d;
  const auto num_nodes = static_cast<std::size_t>(torus.num_nodes());
  SmallVec<i64> radix, stride;
  for (i32 dim = 0; dim < torus.dims(); ++dim) {
    radix.push_back(torus.radix(dim));
    stride.push_back(torus.stride(dim));
  }
  const std::vector<i64> hc = decode(torus, group);
  // slot0[u]: where node u's coset keeps its per-slot sums.
  constexpr std::size_t kUnset = ~std::size_t{0};
  std::vector<std::size_t> slot0(num_nodes, kUnset);
  std::size_t cosets = 0;
  for (std::size_t u = 0; u < num_nodes; ++u) {
    if (slot0[u] != kUnset) continue;
    const Coord uc = torus.coord(static_cast<NodeId>(u));
    for (std::size_t g = 0; g < group.size(); ++g) {
      i64 node = 0;
      for (std::size_t i = 0; i < d; ++i) {
        const i64 x = uc[i] + hc[g * d + i];
        node += (x >= radix[i] ? x - radix[i] : x) * stride[i];
      }
      slot0[static_cast<std::size_t>(node)] = cosets * per_node;
    }
    ++cosets;
  }
  std::vector<T> sum(cosets * per_node, T{0});
  for (std::size_t u = 0; u < num_nodes; ++u)
    for (std::size_t slot = 0; slot < per_node; ++slot)
      sum[slot0[u] + slot] += links[u * per_node + slot];
  std::vector<double> coset_loads(sum.size());
  for (std::size_t c = 0; c < sum.size(); ++c) coset_loads[c] = finish(sum[c]);
  for (std::size_t u = 0; u < num_nodes; ++u)
    for (std::size_t slot = 0; slot < per_node; ++slot)
      loads[u * per_node + slot] = coset_loads[slot0[u] + slot];
  return loads;
}

/// The one ODR/UDR load kernel.  `per_pair` (OdrPairs or UdrPairs) adds one
/// ordered pair's correction segments to a difference array.  Only one
/// source per coset of the placement's translation stabilizer H is
/// evaluated, against every destination; the sources are partitioned over
/// up to `threads` workers, each with a private i64 array.  The arrays are summed as integers,
/// prefix-summed once along every ring, folded over H (fold_cosets) and
/// divided once per link value, so the result is the correctly rounded
/// exact load and bit-identical for every thread count.  When H = {0}
/// every node of P is a representative and the fold only divides.
template <typename PerPair>
LoadMap ring_loads(const Torus& torus, const Placement& p, i32 threads,
                   const PerPair& per_pair) {
  p.check_torus(torus);
  TP_REQUIRE(threads >= 1, "need at least one analyzer thread");
  const Rings& g = per_pair.g;
  const i64 n = p.size();
  require_exact(g, n);
  TP_OBS_COUNT("load.pairs_evaluated", n * (n - 1));

  const auto d = static_cast<std::size_t>(torus.dims());
  const std::vector<i64> coords = decode(torus, p.nodes());
  const Stabilizer st = stabilizer(torus, p, coords);

  const auto num_edges = static_cast<std::size_t>(torus.num_directed_edges());
  const auto reps = static_cast<i64>(st.reps.size());
  const i32 workers =
      effective_workers(reps * (n - 1), threads, kMinPairsPerWorker);
  std::vector<std::vector<i64>> diff;
  for (i32 w = 0; w < workers; ++w) diff.emplace_back(num_edges, 0);
  // Registry counters are not atomic (obs/registry.h): workers tally ties
  // into their own slot and the total is recorded once after the join.
  std::vector<i64> ties(static_cast<std::size_t>(workers), 0);
  parallel_for_blocks(reps, workers, [&](i32 worker, i64 lo, i64 hi) {
    const auto w = static_cast<std::size_t>(worker);
    for (auto ri = static_cast<std::size_t>(lo);
         ri < static_cast<std::size_t>(hi); ++ri) {
      TP_PROF_PHASE("ring.diff");
      const auto si = static_cast<std::size_t>(
          std::lower_bound(p.nodes().begin(), p.nodes().end(), st.reps[ri]) -
          p.nodes().begin());
      for (std::size_t di = 0; di < p.nodes().size(); ++di)
        if (di != si)
          per_pair(diff[w].data(), &coords[si * d], &coords[di * d],
                   p.nodes()[si], 1, ties[w]);
    }
  });
  // A pair's ties depend only on its coordinate differences, so every
  // source of a coset ties as often as its representative.
  i64 total_ties = 0;
  for (const i64 t : ties) total_ties += t;
  total_ties *= static_cast<i64>(st.group.size());
  if (total_ties > 0) TP_OBS_COUNT("router.tie_breaks", total_ties);

  std::vector<i64>& acc = diff[0];
  {
    TP_PROF_PHASE("ring.prefix");
    for (std::size_t w = 1; w < diff.size(); ++w)
      for (std::size_t e = 0; e < num_edges; ++e) acc[e] += diff[w][e];
    prefix_rings(g, acc);
  }
  const auto unit = static_cast<double>(g.unit);
  return LoadMap(torus, fold_cosets(torus, st.group, acc, [unit](i64 v) {
                   return static_cast<double>(v) / unit;
                 }));
}

SmallVec<i32> identity_order(const Torus& torus) {
  SmallVec<i32> identity;
  for (i32 dim = 0; dim < torus.dims(); ++dim) identity.push_back(dim);
  return identity;
}

}  // namespace

LoadMap reference_loads(const Torus& torus, const Placement& p,
                        const Router& router) {
  p.check_torus(torus);
  LoadMap loads(torus);
  for (NodeId src : p.nodes()) {
    for (NodeId dst : p.nodes()) {
      if (src == dst) continue;
      const auto paths = router.paths(torus, src, dst);
      TP_ASSERT(!paths.empty(), "router produced no path for a pair");
      const double w = 1.0 / static_cast<double>(paths.size());
      for (const Path& path : paths)
        for (EdgeId e : path.edges) loads.add(e, w);
    }
  }
  return loads;
}

LoadMap odr_loads(const Torus& torus, const Placement& p, TieBreak tie,
                  i32 threads) {
  return odr_loads_ordered(torus, p, identity_order(torus), tie, threads);
}

LoadMap odr_loads_ordered(const Torus& torus, const Placement& p,
                          const SmallVec<i32>& order, TieBreak tie,
                          i32 threads) {
  TP_OBS_SCOPE("load.odr");
  return ring_loads(torus, p, threads, OdrPairs(torus, order, tie));
}

LoadMap udr_loads(const Torus& torus, const Placement& p, TieBreak tie,
                  i32 threads) {
  TP_OBS_SCOPE("load.udr");
  return ring_loads(torus, p, threads, UdrPairs(torus, tie));
}

LoadMap udr_loads_enumerated(const Torus& torus, const Placement& p,
                             TieBreak tie) {
  p.check_torus(torus);
  UdrRouter router(tie);
  return reference_loads(torus, p, router);
}

LoadMap adaptive_loads(const Torus& torus, const Placement& p) {
  TP_OBS_SCOPE("load.adaptive");
  p.check_torus(torus);
  TP_OBS_COUNT("load.pairs_evaluated", p.size() * (p.size() - 1));
  const std::size_t d = static_cast<std::size_t>(torus.dims());
  const i64 per_node = 2 * torus.dims();

  // Sources are one node per coset of the translation stabilizer; the
  // rest of each coset is added by fold_cosets (see ring_loads).
  const Stabilizer st = stabilizer(torus, p);

  // C(n, r) by Pascal's rule up to the largest Lee distance among the
  // pairs (translation keeps Lee distance, so the representatives' rows
  // reach it): exact i64 values, -1 past i64, which fails only when looked
  // up.
  i64 max_lee = 0;
  for (NodeId src : st.reps)
    for (NodeId dst : p.nodes())
      max_lee = std::max(max_lee, torus.lee_distance(src, dst));
  std::vector<std::vector<i64>> pascal;
  for (std::size_t n = 0; n <= static_cast<std::size_t>(max_lee); ++n) {
    pascal.emplace_back(n + 1, 1);
    for (std::size_t r = 1; r < n; ++r) {
      const i64 a = pascal[n - 1][r - 1], b = pascal[n - 1][r];
      const bool fits =
          a >= 0 && b >= 0 && a <= std::numeric_limits<i64>::max() - b;
      pascal[n][r] = fits ? a + b : -1;
    }
  }
  const auto binom = [&pascal](i64 n, i64 r) {
    const i64 v =
        pascal[static_cast<std::size_t>(n)][static_cast<std::size_t>(r)];
    TP_REQUIRE(v >= 0, "binomial overflow");
    return v;
  };

  std::vector<double> loads(
      static_cast<std::size_t>(torus.num_directed_edges()), 0.0);
  for (NodeId src : st.reps) {
    const Coord src_c = torus.coord(src);
    for (NodeId dst : p.nodes()) {
      if (src == dst) continue;
      // Per-dimension arc lengths and tie flags.
      SmallVec<i64> len(d, 0);
      SmallVec<i32> tie_dim;
      SmallVec<i64> base_dir(d, 0);
      i64 total = 0;
      for (std::size_t i = 0; i < d; ++i) {
        const i32 dim = static_cast<i32>(i);
        const i32 b = torus.coord_of(dst, dim);
        len[i] = torus.cyclic_dist(dim, src_c[i], b);
        total += len[i];
        const Way way = torus.shortest_way(dim, src_c[i], b);
        if (way == Way::Tie) tie_dim.push_back(dim);
        base_dir[i] = way == Way::Neg ? -1 : +1;
      }
      // Base multinomial: number of interleavings for one direction
      // commitment (identical for every commitment since arc lengths match).
      double m_base = 1.0;
      {
        i64 remaining = total;
        for (std::size_t i = 0; i < d; ++i) {
          m_base *= static_cast<double>(binom(remaining, len[i]));
          remaining -= len[i];
        }
      }
      const double commit_w =
          1.0 / static_cast<double>(powi(2, static_cast<i64>(tie_dim.size())));

      // Enumerate direction commitments for tie dims.
      for_each_subset(static_cast<int>(tie_dim.size()), [&](std::uint32_t mask) {
        SmallVec<i64> dir = base_dir;
        for (std::size_t t = 0; t < tie_dim.size(); ++t)
          if (mask & (1u << t)) dir[static_cast<std::size_t>(tie_dim[t])] = -1;

        // Walk the corridor: positions 0..len[i] along each dimension.
        Radices pos_radix(d, 1);
        for (std::size_t i = 0; i < d; ++i)
          pos_radix[i] = static_cast<i32>(len[i] + 1);
        for (NdRange r(pos_radix); !r.done(); r.next()) {
          const Coord& pos = r.coord();
          // Node at this corridor position, and path counts to/from it.
          double m_to = 1.0, m_from = 1.0;
          i64 steps_to = 0, steps_from = 0;
          for (std::size_t i = 0; i < d; ++i) {
            steps_to += pos[i];
            steps_from += len[i] - pos[i];
          }
          {
            i64 rem = steps_to;
            for (std::size_t i = 0; i < d; ++i) {
              m_to *= static_cast<double>(binom(rem, pos[i]));
              rem -= pos[i];
            }
            rem = steps_from;
            for (std::size_t i = 0; i < d; ++i) {
              m_from *= static_cast<double>(binom(rem, len[i] - pos[i]));
              rem -= len[i] - pos[i];
            }
          }
          NodeId u = 0;
          for (std::size_t i = 0; i < d; ++i) {
            const i64 k = torus.radices()[i];
            u += mod_norm(src_c[i] + dir[i] * pos[i], k) *
                 torus.stride(static_cast<i32>(i));
          }
          // One outgoing corridor edge per dimension with remaining steps.
          for (std::size_t i = 0; i < d; ++i) {
            if (pos[i] == len[i] || len[i] == 0) continue;
            // Fraction of paths using edge u->u+dir_i: paths to u times
            // paths from the edge head to dst, over all paths.  The head's
            // remaining steps differ from u's only in dimension i.
            const double m_from_head =
                m_from * static_cast<double>(len[i] - pos[i]) /
                static_cast<double>(steps_from);
            const double frac = m_to * m_from_head / m_base;
            const auto e = static_cast<std::size_t>(
                u * per_node + static_cast<i64>(2 * i) + (dir[i] < 0 ? 1 : 0));
            loads[e] += commit_w * frac;
          }
        }
      });
    }
  }
  const auto same = [](double v) { return v; };
  return LoadMap(torus, fold_cosets(torus, st.group, loads, same));
}

double expected_total_load(const Torus& torus, const Placement& p) {
  p.check_torus(torus);
  double sum = 0.0;
  for (NodeId a : p.nodes())
    for (NodeId b : p.nodes())
      if (a != b) sum += static_cast<double>(torus.lee_distance(a, b));
  return sum;
}

/// The evaluator's state.  `state` marks every node of the torus: absent,
/// a member, or (during propose) leaving or joining.
struct LoadDelta::Impl {
  enum : char { kAbsent, kMember, kLeaving, kJoining };

  Impl(const Torus& torus, std::variant<OdrPairs, UdrPairs> per_pair)
      : kernel(std::move(per_pair)),
        d(static_cast<std::size_t>(torus.dims())),
        state(static_cast<std::size_t>(torus.num_nodes()), kAbsent),
        sums(static_cast<std::size_t>(torus.num_directed_edges()), 0),
        diff(sums.size(), 0) {
    for (NodeId node = 0; node < torus.num_nodes(); ++node)
      for (const i32 x : torus.coord(node)) coords.push_back(x);
  }

  const Rings& rings() const {
    return std::visit([](const auto& k) -> const Rings& { return k.g; },
                      kernel);
  }

  /// Moves every node of `nodes` from state `from` to `to`.  If one is out
  /// of range or not in `from` (a repeat included), undoes the moves made
  /// and returns false.
  bool mark(const std::vector<NodeId>& nodes, char from, char to) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto x = static_cast<std::size_t>(nodes[i]);
      if (nodes[i] < 0 || x >= state.size() || state[x] != from) {
        for (std::size_t j = 0; j < i; ++j)
          state[static_cast<std::size_t>(nodes[j])] = from;
        return false;
      }
      state[x] = to;
    }
    return true;
  }

  std::variant<OdrPairs, UdrPairs> kernel;
  std::size_t d;
  std::vector<i64> coords;  ///< d per node of the torus
  std::vector<char> state;
  std::vector<NodeId> members;
  /// `sums` is the current set's; propose() builds the candidate's in
  /// `diff`, and commit() swaps the two.
  std::vector<i64> sums, diff;
  i64 max = 0, candidate_max = 0;
  std::vector<NodeId> out, in;  ///< the pending proposal
  bool pending = false;
  i64 pairs = 0, ties = 0;
};

LoadDelta::LoadDelta(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
LoadDelta::LoadDelta(LoadDelta&&) noexcept = default;
LoadDelta::~LoadDelta() = default;

LoadDelta LoadDelta::odr(const Torus& torus, const std::vector<NodeId>& nodes) {
  LoadDelta delta(std::make_unique<Impl>(
      torus, OdrPairs(torus, identity_order(torus), TieBreak::PositiveOnly)));
  delta.propose({}, nodes);
  delta.commit();
  return delta;
}

LoadDelta LoadDelta::udr(const Torus& torus, const std::vector<NodeId>& nodes) {
  LoadDelta delta(
      std::make_unique<Impl>(torus, UdrPairs(torus, TieBreak::PositiveOnly)));
  delta.propose({}, nodes);
  delta.commit();
  return delta;
}

double LoadDelta::emax() const {
  return static_cast<double>(impl_->max) /
         static_cast<double>(impl_->rings().unit);
}

double LoadDelta::propose(const std::vector<NodeId>& out,
                          const std::vector<NodeId>& in) {
  Impl& s = *impl_;
  const Rings& g = s.rings();
  s.pending = false;
  require_exact(g, static_cast<i64>(s.members.size()) -
                       static_cast<i64>(out.size()) +
                       static_cast<i64>(in.size()));
  TP_REQUIRE(s.mark(out, Impl::kMember, Impl::kLeaving),
             "proposal removes a node that is not in the set");
  if (!s.mark(in, Impl::kAbsent, Impl::kJoining)) {
    s.mark(out, Impl::kLeaving, Impl::kMember);
    TP_REQUIRE(false, "proposal adds a node that is already in the set");
  }

  std::fill(s.diff.begin(), s.diff.end(), i64{0});
  std::visit(
      [&s, &out, &in](const auto& per_pair) {
        const auto pair = [&s, &per_pair](NodeId a, NodeId b, i64 sign) {
          per_pair(s.diff.data(), &s.coords[static_cast<std::size_t>(a) * s.d],
                   &s.coords[static_cast<std::size_t>(b) * s.d], a, sign,
                   s.ties);
          ++s.pairs;
        };
        // Pairs touching `out` over the current set, each once.
        for (const NodeId x : out)
          for (const NodeId q : s.members) {
            if (q == x) continue;
            pair(x, q, -1);
            if (s.state[static_cast<std::size_t>(q)] != Impl::kLeaving)
              pair(q, x, -1);
          }
        // Pairs touching `in` over the new set, each once.
        for (const NodeId x : in) {
          for (const NodeId q : s.members)
            if (s.state[static_cast<std::size_t>(q)] == Impl::kMember) {
              pair(x, q, 1);
              pair(q, x, 1);
            }
          for (const NodeId q : in)
            if (q != x) pair(x, q, 1);
        }
      },
      s.kernel);
  s.mark(out, Impl::kLeaving, Impl::kMember);
  s.mark(in, Impl::kJoining, Impl::kAbsent);

  prefix_rings(g, s.diff);
  i64 top = 0;
  for (std::size_t e = 0; e < s.diff.size(); ++e) {
    s.diff[e] += s.sums[e];
    top = std::max(top, s.diff[e]);
  }
  s.candidate_max = top;
  s.out = out;
  s.in = in;
  s.pending = true;
  return static_cast<double>(top) / static_cast<double>(g.unit);
}

void LoadDelta::commit() {
  Impl& s = *impl_;
  TP_REQUIRE(s.pending, "no proposal to commit");
  s.sums.swap(s.diff);
  s.max = s.candidate_max;
  s.mark(s.out, Impl::kMember, Impl::kAbsent);
  std::erase_if(s.members, [&s](NodeId q) {
    return s.state[static_cast<std::size_t>(q)] == Impl::kAbsent;
  });
  s.mark(s.in, Impl::kAbsent, Impl::kMember);
  s.members.insert(s.members.end(), s.in.begin(), s.in.end());
  s.pending = false;
}

i64 LoadDelta::pairs_evaluated() const { return impl_->pairs; }

i64 LoadDelta::tie_breaks() const { return impl_->ties; }

}  // namespace tp
