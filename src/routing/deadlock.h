// Wormhole-routing deadlock analysis via channel-dependency graphs.
//
// The paper's networks are wormhole-routed in practice (its reference [11]
// is Ni & McKinley's wormhole survey), where a routing algorithm is
// deadlock-free iff its channel-dependency graph (CDG) is acyclic
// (Dally & Seitz).  This module builds the CDG a routing algorithm induces
// on a torus and placement:
//
//   * over physical channels — on a torus even dimension-ordered routing
//     is cyclic (the wrap-around closes each ring into a cycle);
//   * over dateline virtual channels — each physical channel is split into
//     two VCs and a packet switches from VC0 to VC1 when it crosses its
//     ring's dateline (the wrap between coordinates k-1 and 0).  With this
//     scheme ODR's CDG becomes acyclic while UDR's stays cyclic in
//     general: the quantitative cost of UDR's fault tolerance.

#pragma once

#include <vector>

#include "src/placement/placement.h"
#include "src/routing/router.h"

namespace tp {

/// A dependency graph over channels; node i's successors are adj[i].
struct ChannelGraph {
  std::vector<std::vector<i32>> adj;
  i64 num_dependencies() const {
    i64 n = 0;
    for (const auto& v : adj) n += static_cast<i64>(v.size());
    return n;
  }
};

/// CDG over physical channels: channel ids are EdgeIds; there is a
/// dependency c1 -> c2 whenever some routing path of some processor pair
/// traverses c2 immediately after c1.
ChannelGraph physical_channel_graph(const Torus& torus, const Placement& p,
                                    const Router& router);

/// True when traversing `link` crosses the dateline of its ring: the wrap
/// from coordinate k-1 to 0 (+) or from 0 to k-1 (-).  The dateline VC
/// discipline moves a packet from VC0 to VC1 after such a link, both in
/// dateline_channel_graph and in WormholeSim's VcPolicy::Dateline.
bool crosses_dateline(const Torus& torus, const Link& link);

/// CDG over dateline virtual channels: channel ids are EdgeId*2 + vc.
/// A packet starts each ring traversal on VC0 and moves to VC1 after
/// crossing the dateline wrap (the link from coordinate k-1 to 0 in the +
/// direction, or 0 to k-1 in the - direction) of the dimension it is
/// currently correcting.
ChannelGraph dateline_channel_graph(const Torus& torus, const Placement& p,
                                    const Router& router);

/// True if the dependency graph contains a directed cycle.
bool has_cycle(const ChannelGraph& graph);

/// Convenience: is the routing algorithm deadlock-free on this placement
/// under the dateline two-VC scheme?
bool deadlock_free_with_datelines(const Torus& torus, const Placement& p,
                                  const Router& router);

}  // namespace tp
