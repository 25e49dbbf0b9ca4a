#include "src/routing/odr.h"

#include "src/obs/obs.h"
#include "src/util/error.h"

namespace tp {

using routing_detail::allowed_dirs;
using routing_detail::append_segment;
using routing_detail::lee_distance;

SmallVec<i32> OdrRouter::correction_order(const Torus& torus) const {
  const std::size_t d = static_cast<std::size_t>(torus.dims());
  if (order_.empty()) {
    SmallVec<i32> identity;
    for (std::size_t i = 0; i < d; ++i)
      identity.push_back(static_cast<i32>(i));
    return identity;
  }
  TP_REQUIRE(order_.size() == d, "order must cover every dimension");
  SmallVec<i32> seen(d, 0);
  for (std::size_t i = 0; i < d; ++i) {
    TP_REQUIRE(order_[i] >= 0 && order_[i] < torus.dims(),
               "order entry out of range");
    TP_REQUIRE(seen[static_cast<std::size_t>(order_[i])] == 0,
               "order repeats a dimension");
    seen[static_cast<std::size_t>(order_[i])] = 1;
  }
  return order_;
}

std::vector<Path> OdrRouter::paths(const Torus& torus, NodeId p,
                                   NodeId q) const {
  TP_REQUIRE(torus.valid_node(p) && torus.valid_node(q), "node out of range");
  const SmallVec<i32> order = correction_order(torus);
  // Depth-first over the direction choice in each dimension (only tie
  // dimensions with BothDirections ever branch).
  // Each dimension is corrected once, so the walk still sits on p's
  // coordinate in the dimension it is about to correct.
  const Coord cp = torus.coord(p);
  const Coord cq = torus.coord(q);
  std::vector<Path> result;
  Path prefix;
  prefix.source = p;
  prefix.target = q;

  auto recurse = [&](auto&& self, NodeId node, std::size_t idx) -> void {
    if (idx == order.size()) {
      TP_ASSERT(node == q, "ODR path did not reach target");
      result.push_back(prefix);
      return;
    }
    const i32 dim = order[idx];
    const i32 a = cp[static_cast<std::size_t>(dim)];
    const i32 b = cq[static_cast<std::size_t>(dim)];
    const auto dirs = allowed_dirs(torus, dim, a, b, tie_);
    if (dirs.empty()) {
      self(self, node, idx + 1);
      return;
    }
    for (std::size_t i = 0; i < dirs.size(); ++i) {
      const Dir dir = dirs[i] > 0 ? Dir::Pos : Dir::Neg;
      const std::size_t mark = prefix.edges.size();
      const NodeId next =
          append_segment(torus, node, dim, a, b, dir, prefix.edges);
      self(self, next, idx + 1);
      prefix.edges.resize(mark);
    }
  };
  recurse(recurse, p, 0);
  TP_OBS_COUNT("router.paths_enumerated", static_cast<i64>(result.size()));
  return result;
}

i64 OdrRouter::num_paths(const Torus& torus, NodeId p, NodeId q) const {
  TP_REQUIRE(torus.valid_node(p) && torus.valid_node(q), "node out of range");
  if (tie_ == TieBreak::PositiveOnly) return 1;
  i64 count = 1;
  for (i32 dim = 0; dim < torus.dims(); ++dim) {
    if (torus.shortest_way(dim, torus.coord_of(p, dim),
                           torus.coord_of(q, dim)) == Way::Tie)
      count *= 2;
  }
  return count;
}

Path OdrRouter::sample_path(const Torus& torus, NodeId p, NodeId q,
                            Xoshiro256SS& rng) const {
  if (tie_ == TieBreak::PositiveOnly) return canonical_path(torus, p, q);
  // Flip a fair coin per tie dimension instead of materializing all paths.
  const SmallVec<i32> order = correction_order(torus);
  const Coord cp = torus.coord(p);
  const Coord cq = torus.coord(q);
  Path path;
  path.source = p;
  path.target = q;
  path.edges.reserve(static_cast<std::size_t>(lee_distance(torus, cp, cq)));
  NodeId node = p;
  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    const i32 dim = order[idx];
    const i32 a = cp[static_cast<std::size_t>(dim)];
    const i32 b = cq[static_cast<std::size_t>(dim)];
    const auto dirs = allowed_dirs(torus, dim, a, b, tie_);
    if (dirs.empty()) continue;
    const std::size_t pick =
        dirs.size() == 1 ? 0 : static_cast<std::size_t>(rng.below(2));
    const Dir dir = dirs[pick] > 0 ? Dir::Pos : Dir::Neg;
    node = append_segment(torus, node, dim, a, b, dir, path.edges);
  }
  TP_ASSERT(node == q, "sampled ODR path did not reach target");
  return path;
}

Path OdrRouter::canonical_path(const Torus& torus, NodeId p, NodeId q) const {
  TP_REQUIRE(torus.valid_node(p) && torus.valid_node(q), "node out of range");
  const SmallVec<i32> order = correction_order(torus);
  const Coord cp = torus.coord(p);
  const Coord cq = torus.coord(q);
  Path path;
  path.source = p;
  path.target = q;
  path.edges.reserve(static_cast<std::size_t>(lee_distance(torus, cp, cq)));
  NodeId node = p;
  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    const i32 dim = order[idx];
    const i32 a = cp[static_cast<std::size_t>(dim)];
    const i32 b = cq[static_cast<std::size_t>(dim)];
    const auto dirs = allowed_dirs(torus, dim, a, b, TieBreak::PositiveOnly);
    if (dirs.empty()) continue;
    const Dir dir = dirs[0] > 0 ? Dir::Pos : Dir::Neg;
    node = append_segment(torus, node, dim, a, b, dir, path.edges);
  }
  TP_ASSERT(node == q, "canonical ODR path did not reach target");
  return path;
}

}  // namespace tp
