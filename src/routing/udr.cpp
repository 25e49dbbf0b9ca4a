#include "src/routing/udr.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/util/combinatorics.h"
#include "src/util/error.h"

namespace tp {

using routing_detail::allowed_dirs;
using routing_detail::append_segment;
using routing_detail::lee_distance;

SmallVec<i32> UdrRouter::differing_dims(const Torus& torus, NodeId p,
                                        NodeId q) {
  SmallVec<i32> dims;
  for (i32 d = 0; d < torus.dims(); ++d)
    if (torus.coord_of(p, d) != torus.coord_of(q, d)) dims.push_back(d);
  return dims;
}

Path UdrRouter::path_for_order(const Torus& torus, NodeId p, NodeId q,
                               const SmallVec<i32>& order,
                               const SmallVec<i32>& dirs) const {
  TP_REQUIRE(order.size() == dirs.size(),
             "one direction per ordered dimension required");
  // `at` tracks the walk's coordinates, so a repeated dimension in
  // `order` still steps from where the walk really is.
  Coord at = torus.coord(p);
  const Coord cq = torus.coord(q);
  Path path;
  path.source = p;
  path.target = q;
  path.edges.reserve(static_cast<std::size_t>(lee_distance(torus, at, cq)));
  NodeId node = p;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const i32 dim = order[i];
    TP_REQUIRE(dim >= 0 && dim < torus.dims(), "dimension out of range");
    const auto di = static_cast<std::size_t>(dim);
    const Dir dir = dirs[i] > 0 ? Dir::Pos : Dir::Neg;
    node = append_segment(torus, node, dim, at[di], cq[di], dir, path.edges);
    at[di] = cq[di];
  }
  TP_REQUIRE(node == q, "order/dirs do not route p to q");
  return path;
}

std::vector<Path> UdrRouter::paths(const Torus& torus, NodeId p,
                                   NodeId q) const {
  TP_REQUIRE(torus.valid_node(p) && torus.valid_node(q), "node out of range");
  const SmallVec<i32> diff = differing_dims(torus, p, q);

  // Per differing dimension, the directions the tie-break allows.
  SmallVec<i32> dir_options_first(diff.size(), 0);
  SmallVec<i32> dir_options_count(diff.size(), 0);
  for (std::size_t i = 0; i < diff.size(); ++i) {
    const auto dirs = allowed_dirs(torus, diff[i], torus.coord_of(p, diff[i]),
                                   torus.coord_of(q, diff[i]), tie_);
    TP_ASSERT(!dirs.empty(), "differing dimension with no direction");
    dir_options_first[i] = dirs[0];
    dir_options_count[i] = static_cast<i32>(dirs.size());
  }

  std::vector<Path> result;
  for_each_permutation(diff, [&](const SmallVec<i32>& order) {
    // Direction assignment per position in `order`; iterate the product of
    // per-dimension options (each is 1 or 2 entries: first +, then -).
    SmallVec<i32> choice(order.size(), 0);  // index into the option list
    for (;;) {
      SmallVec<i32> dirs(order.size(), 0);
      for (std::size_t i = 0; i < order.size(); ++i) {
        // Find the option list for the dimension at this order position.
        std::size_t di = 0;
        while (diff[di] != order[i]) ++di;
        dirs[i] = choice[i] == 0 ? dir_options_first[di] :
                                   -dir_options_first[di];
      }
      result.push_back(path_for_order(torus, p, q, order, dirs));
      // Increment the mixed-radix choice counter.
      std::size_t i = 0;
      for (; i < order.size(); ++i) {
        std::size_t di = 0;
        while (diff[di] != order[i]) ++di;
        if (++choice[i] < dir_options_count[di]) break;
        choice[i] = 0;
      }
      if (i == order.size()) break;
    }
  });
  TP_OBS_COUNT("router.paths_enumerated", static_cast<i64>(result.size()));
  return result;
}

i64 UdrRouter::num_paths(const Torus& torus, NodeId p, NodeId q) const {
  TP_REQUIRE(torus.valid_node(p) && torus.valid_node(q), "node out of range");
  const SmallVec<i32> diff = differing_dims(torus, p, q);
  i64 count = factorial(static_cast<i64>(diff.size()));
  if (tie_ == TieBreak::BothDirections) {
    for (std::size_t i = 0; i < diff.size(); ++i) {
      if (torus.shortest_way(diff[i], torus.coord_of(p, diff[i]),
                             torus.coord_of(q, diff[i])) == Way::Tie)
        count *= 2;
    }
  }
  return count;
}

Path UdrRouter::sample_path(const Torus& torus, NodeId p, NodeId q,
                            Xoshiro256SS& rng) const {
  const Coord cp = torus.coord(p);
  const Coord cq = torus.coord(q);
  SmallVec<i32> order;
  for (std::size_t d = 0; d < cp.size(); ++d)
    if (cp[d] != cq[d]) order.push_back(static_cast<i32>(d));
  // Fisher-Yates shuffle of the correction order.
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    std::swap(order[i - 1], order[j]);
  }
  SmallVec<i32> dirs(order.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto di = static_cast<std::size_t>(order[i]);
    const auto options = allowed_dirs(torus, order[i], cp[di], cq[di], tie_);
    dirs[i] = options.size() == 1
                  ? options[0]
                  : options[static_cast<std::size_t>(rng.below(2))];
  }
  return path_for_order(torus, p, q, order, dirs);
}

}  // namespace tp
