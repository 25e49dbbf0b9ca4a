#include "src/torus/torus.h"

#include <limits>

#include "src/util/error.h"

namespace tp {

Torus::Torus(const Radices& radices) : radices_(radices) { init(); }

Torus::Torus(i32 d, i32 k) {
  TP_REQUIRE(d >= 1 && static_cast<std::size_t>(d) <= kMaxDims,
             "dimension out of range");
  radices_ = Radices(static_cast<std::size_t>(d), k);
  init();
}

void Torus::init() {
  TP_REQUIRE(!radices_.empty() && radices_.size() <= kMaxDims,
             "torus needs 1..kMaxDims dimensions");
  for (std::size_t i = 0; i < radices_.size(); ++i)
    TP_REQUIRE(radices_[i] >= 2, "torus radix must be >= 2");
  strides_.resize(radices_.size(), 0);
  i64 stride = 1;
  for (std::size_t i = radices_.size(); i > 0; --i) {
    strides_[i - 1] = stride;
    TP_REQUIRE(stride <= std::numeric_limits<i64>::max() / radices_[i - 1],
               "torus too large for 64-bit node ids");
    stride *= radices_[i - 1];
  }
  num_nodes_ = stride;
}

i32 Torus::radix(i32 dim) const {
  TP_REQUIRE(dim >= 0 && dim < dims(), "dimension out of range");
  return radices_[static_cast<std::size_t>(dim)];
}

bool Torus::is_uniform_radix() const {
  for (std::size_t i = 1; i < radices_.size(); ++i)
    if (radices_[i] != radices_[0]) return false;
  return true;
}

NodeId Torus::node_id(const Coord& c) const {
  TP_REQUIRE(c.size() == radices_.size(), "coordinate arity mismatch");
  i64 id = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    TP_REQUIRE(c[i] >= 0 && c[i] < radices_[i], "coordinate out of range");
    id += static_cast<i64>(c[i]) * strides_[i];
  }
  return id;
}

Coord Torus::coord(NodeId n) const {
  TP_REQUIRE(valid_node(n), "node id out of range");
  Coord c(radices_.size(), 0);
  for (std::size_t i = 0; i < radices_.size(); ++i)
    c[i] = static_cast<i32>((n / strides_[i]) % radices_[i]);
  return c;
}

i32 Torus::coord_of(NodeId n, i32 dim) const {
  TP_REQUIRE(valid_node(n), "node id out of range");
  TP_REQUIRE(dim >= 0 && dim < dims(), "dimension out of range");
  const auto i = static_cast<std::size_t>(dim);
  return static_cast<i32>((n / strides_[i]) % radices_[i]);
}

i64 Torus::stride(i32 dim) const {
  TP_REQUIRE(dim >= 0 && dim < dims(), "dimension out of range");
  return strides_[static_cast<std::size_t>(dim)];
}

NodeId Torus::neighbor(NodeId n, i32 dim, Dir dir) const {
  TP_REQUIRE(valid_node(n), "node id out of range");
  TP_REQUIRE(dim >= 0 && dim < dims(), "dimension out of range");
  const auto i = static_cast<std::size_t>(dim);
  const i64 k = radices_[i];
  const i64 a = (n / strides_[i]) % k;
  const i64 b = dir == Dir::Pos ? (a + 1) % k : (a + k - 1) % k;
  return n + (b - a) * strides_[i];
}

EdgeId Torus::edge_id(NodeId n, i32 dim, Dir dir) const {
  TP_REQUIRE(valid_node(n), "node id out of range");
  TP_REQUIRE(dim >= 0 && dim < dims(), "dimension out of range");
  return n * (2 * dims()) + 2 * dim + (dir == Dir::Neg ? 1 : 0);
}

Link Torus::link(EdgeId e) const {
  TP_REQUIRE(valid_edge(e), "edge id out of range");
  Link l;
  const i64 per_node = 2 * dims();
  l.tail = e / per_node;
  const i64 rem = e % per_node;
  l.dim = static_cast<i32>(rem / 2);
  l.dir = (rem % 2 == 0) ? Dir::Pos : Dir::Neg;
  l.head = neighbor(l.tail, l.dim, l.dir);
  return l;
}

EdgeId Torus::reverse_edge(EdgeId e) const {
  const Link l = link(e);
  const Dir opposite = (l.dir == Dir::Pos) ? Dir::Neg : Dir::Pos;
  return edge_id(l.head, l.dim, opposite);
}

EdgeId Torus::undirected_id(EdgeId e) const {
  const EdgeId r = reverse_edge(e);
  return r < e ? r : e;
}

i64 Torus::cyclic_dist(i32 dim, i32 a, i32 b) const {
  TP_REQUIRE(dim >= 0 && dim < dims(), "dimension out of range");
  return cyclic_distance(a, b, radices_[static_cast<std::size_t>(dim)]);
}

i64 Torus::lee_distance(NodeId a, NodeId b) const {
  TP_REQUIRE(valid_node(a) && valid_node(b), "node id out of range");
  i64 sum = 0;
  for (i32 d = 0; d < dims(); ++d)
    sum += cyclic_dist(d, coord_of(a, d), coord_of(b, d));
  return sum;
}

Way Torus::shortest_way(i32 dim, i32 a, i32 b) const {
  TP_REQUIRE(dim >= 0 && dim < dims(), "dimension out of range");
  const i64 k = radices_[static_cast<std::size_t>(dim)];
  const i64 fwd = mod_norm(b - a, k);
  if (fwd == 0) return Way::None;
  const i64 bwd = k - fwd;
  if (fwd < bwd) return Way::Pos;
  if (bwd < fwd) return Way::Neg;
  return Way::Tie;
}

i64 Torus::num_minimal_paths(NodeId a, NodeId b) const {
  TP_REQUIRE(valid_node(a) && valid_node(b), "node id out of range");
  // A minimal path corrects each dimension by its cyclic distance; steps of
  // different dimensions interleave freely, so the count is the multinomial
  //   (sum of per-dim distances)! / prod(per-dim distance!)
  // multiplied by 2 for each dimension where both directions are minimal.
  i64 total = 0;
  i64 ties = 0;
  SmallVec<i64> dist(static_cast<std::size_t>(dims()), 0);
  for (i32 d = 0; d < dims(); ++d) {
    const i32 ca = coord_of(a, d);
    const i32 cb = coord_of(b, d);
    dist[static_cast<std::size_t>(d)] = cyclic_dist(d, ca, cb);
    total += dist[static_cast<std::size_t>(d)];
    if (shortest_way(d, ca, cb) == Way::Tie) ++ties;
  }
  // Multinomial computed as a product of binomials to delay overflow.
  i64 count = 1;
  i64 remaining = total;
  for (i32 d = 0; d < dims(); ++d) {
    const i64 dd = dist[static_cast<std::size_t>(d)];
    count *= binomial(remaining, dd);  // binomial() checks overflow
    remaining -= dd;
  }
  for (i64 t = 0; t < ties; ++t) {
    TP_REQUIRE(count <= std::numeric_limits<i64>::max() / 2,
               "minimal path count overflow");
    count *= 2;
  }
  return count;
}

std::vector<NodeId> Torus::principal_subtorus(i32 dim, i32 value) const {
  TP_REQUIRE(dim >= 0 && dim < dims(), "dimension out of range");
  TP_REQUIRE(value >= 0 && value < radix(dim), "coordinate out of range");
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(num_nodes_ / radix(dim)));
  for (NodeId n = 0; n < num_nodes_; ++n)
    if (coord_of(n, dim) == value) nodes.push_back(n);
  return nodes;
}

std::vector<NodeId> Torus::all_nodes() const {
  std::vector<NodeId> nodes(static_cast<std::size_t>(num_nodes_));
  for (NodeId n = 0; n < num_nodes_; ++n)
    nodes[static_cast<std::size_t>(n)] = n;
  return nodes;
}

std::string Torus::node_str(NodeId n) const {
  const Coord c = coord(n);
  std::string s = "(";
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(c[i]);
  }
  s += ")";
  return s;
}

std::string Torus::edge_str(EdgeId e) const {
  const Link l = link(e);
  return node_str(l.tail) + "->" + node_str(l.head);
}

}  // namespace tp
