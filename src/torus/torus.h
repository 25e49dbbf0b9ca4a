// The d-dimensional torus network T (Definition 1 of the paper).
//
// Nodes are the tuples (a_1, ..., a_d) with a_i in Z_{k_i}; the paper's
// T_k^d is the special case where every radix equals k.  Each node has a
// directed link to each of its 2d neighbors (one +, one - neighbor per
// dimension), so the network has 2 * d * N directed links in total.
//
// Nodes and links are identified by dense integer ids so that per-link
// quantities (loads, queue states, fault flags) can live in flat vectors:
//
//   NodeId  = mixed-radix value of the coordinate tuple (last dim fastest)
//   EdgeId  = node * 2d + 2*dim + (0 for the + direction, 1 for the -)
//
// For radix 2 the two directed links from a node in a dimension reach the
// same neighbor; they are kept as distinct parallel links, matching the
// usual convention for k-ary tori.

#pragma once

#include <string>
#include <vector>

#include "src/util/math.h"
#include "src/util/ndrange.h"
#include "src/util/small_vec.h"

namespace tp {

using NodeId = i64;
using EdgeId = i64;

/// Direction of travel along a dimension.
enum class Dir : i32 { Pos = +1, Neg = -1 };

/// Which way the shortest cyclic correction goes in one dimension.
enum class Way : i32 {
  None,  ///< coordinates already equal
  Pos,   ///< strictly shorter in the + direction
  Neg,   ///< strictly shorter in the - direction
  Tie,   ///< k even and distance exactly k/2: both directions minimal
};

/// A directed link decoded into its components.
struct Link {
  NodeId tail = 0;  ///< node the link leaves
  NodeId head = 0;  ///< node the link enters
  i32 dim = 0;      ///< dimension the link travels along
  Dir dir = Dir::Pos;
};

/// The d-dimensional torus with per-dimension radices.
class Torus {
 public:
  /// Mixed-radix torus.  Every radix must be >= 2; 1 <= d <= kMaxDims.
  explicit Torus(const Radices& radices);

  /// The paper's T_k^d: d dimensions, all radices k.
  Torus(i32 d, i32 k);

  i32 dims() const { return static_cast<i32>(radices_.size()); }
  i32 radix(i32 dim) const;
  const Radices& radices() const { return radices_; }

  /// True when all radices are equal (the paper's T_k^d).
  bool is_uniform_radix() const;

  i64 num_nodes() const { return num_nodes_; }
  i64 num_directed_edges() const { return num_nodes_ * 2 * dims(); }
  i64 num_undirected_edges() const { return num_nodes_ * dims(); }

  // --- node <-> coordinate ---------------------------------------------

  NodeId node_id(const Coord& c) const;
  Coord coord(NodeId n) const;
  /// Coordinate of node n in one dimension (no full decode).
  i32 coord_of(NodeId n, i32 dim) const;
  /// Node-id step of one move along dim: the product of the later radices.
  i64 stride(i32 dim) const;
  bool valid_node(NodeId n) const { return n >= 0 && n < num_nodes_; }

  // --- neighbors and links ---------------------------------------------

  /// The node one step from n along dim in direction dir.
  NodeId neighbor(NodeId n, i32 dim, Dir dir) const;

  /// Id of the directed link leaving n along dim in direction dir.
  EdgeId edge_id(NodeId n, i32 dim, Dir dir) const;

  /// Decode a link id.
  Link link(EdgeId e) const;
  bool valid_edge(EdgeId e) const {
    return e >= 0 && e < num_directed_edges();
  }

  /// The link traversing the same wire in the opposite direction.
  EdgeId reverse_edge(EdgeId e) const;

  /// Canonical id for the undirected wire under a link: the smaller of the
  /// two directed ids.  Two directed links share a wire iff their canonical
  /// ids are equal.
  EdgeId undirected_id(EdgeId e) const;

  // --- distances ---------------------------------------------------------

  /// Cyclic distance between coordinates a and b in a dimension (Def. 6).
  i64 cyclic_dist(i32 dim, i32 a, i32 b) const;

  /// Lee distance between nodes (Def. 6): the shortest-path length.
  i64 lee_distance(NodeId a, NodeId b) const;

  /// Which direction gives the shortest correction from a to b in dim.
  Way shortest_way(i32 dim, i32 a, i32 b) const;

  /// Number of minimal paths between a and b (product over dimensions of
  /// multinomials; accounts for tie dimensions contributing 2 directions).
  /// Exact as long as the result fits in i64; throws on overflow.
  i64 num_minimal_paths(NodeId a, NodeId b) const;

  // --- structure ---------------------------------------------------------

  /// Nodes of the principal subtorus obtained by fixing `dim` to `value`.
  std::vector<NodeId> principal_subtorus(i32 dim, i32 value) const;

  /// All nodes, 0..num_nodes()-1 (for range-for convenience).
  std::vector<NodeId> all_nodes() const;

  /// Human-readable coordinate string "(a1,a2,...,ad)".
  std::string node_str(NodeId n) const;
  /// Human-readable link string "(a)->(b)".
  std::string edge_str(EdgeId e) const;

 private:
  void init();

  Radices radices_;
  SmallVec<i64> strides_;  // strides_[i] = product of radices after i
  i64 num_nodes_ = 0;
};

}  // namespace tp
