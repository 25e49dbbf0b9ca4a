#include "src/routing/router.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/util/error.h"

namespace tp {

i64 Router::num_paths(const Torus& torus, NodeId p, NodeId q) const {
  return static_cast<i64>(paths(torus, p, q).size());
}

Path Router::sample_path(const Torus& torus, NodeId p, NodeId q,
                         Xoshiro256SS& rng) const {
  auto all = paths(torus, p, q);
  TP_REQUIRE(!all.empty(), "router produced no path");
  return all[rng.below(all.size())];
}

namespace routing_detail {

SmallVec<i32> allowed_dirs(const Torus& torus, i32 dim, i32 a, i32 b,
                           TieBreak tie) {
  SmallVec<i32> dirs;
  switch (torus.shortest_way(dim, a, b)) {
    case Way::None:
      break;
    case Way::Pos:
      dirs.push_back(+1);
      break;
    case Way::Neg:
      dirs.push_back(-1);
      break;
    case Way::Tie:
      TP_OBS_COUNT("router.tie_breaks");
      dirs.push_back(+1);
      if (tie == TieBreak::BothDirections) dirs.push_back(-1);
      break;
  }
  return dirs;
}

i64 lee_distance(const Torus& torus, const Coord& a, const Coord& b) {
  i64 sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const i64 k = torus.radix(static_cast<i32>(i));
    const i64 fwd = a[i] <= b[i] ? b[i] - a[i] : b[i] - a[i] + k;
    sum += std::min(fwd, k - fwd);
  }
  return sum;
}

i64 steps_in_dir(const Torus& torus, i32 dim, i32 a, i32 b, Dir dir) {
  const i64 k = torus.radix(dim);
  return dir == Dir::Pos ? mod_norm(b - a, k) : mod_norm(a - b, k);
}

NodeId append_segment(const Torus& torus, NodeId node, i32 dim, i32 from,
                      i32 to, Dir dir, std::vector<EdgeId>& path) {
  const i32 k = torus.radix(dim);
  const i64 stride = torus.stride(dim);
  const i64 wrap = static_cast<i64>(k - 1) * stride;
  const bool pos = dir == Dir::Pos;
  const i32 steps = pos ? (to >= from ? to - from : to - from + k)
                        : (from >= to ? from - to : from - to + k);
  // Link id = node * 2d + 2 * dim + (0 for +, 1 for -), as Torus::edge_id.
  const i64 per_node = 2 * static_cast<i64>(torus.dims());
  const EdgeId offset = 2 * static_cast<EdgeId>(dim) + (pos ? 0 : 1);
  NodeId cur = node;
  i32 c = from;
  for (i32 s = 0; s < steps; ++s) {
    path.push_back(cur * per_node + offset);
    if (pos) {
      if (c == k - 1) {
        c = 0;
        cur -= wrap;
      } else {
        ++c;
        cur += stride;
      }
    } else if (c == 0) {
      c = k - 1;
      cur += wrap;
    } else {
      --c;
      cur -= stride;
    }
  }
  TP_ASSERT(c == to, "segment did not land on target");
  return cur;
}

}  // namespace routing_detail

}  // namespace tp
