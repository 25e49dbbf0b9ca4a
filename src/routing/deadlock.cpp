#include "src/routing/deadlock.h"

#include <algorithm>

#include "src/util/error.h"

namespace tp {

namespace {

/// Deduplicating edge insertion (CDGs are sparse; paths repeat pairs).
void add_dep(ChannelGraph& graph, i32 from, i32 to) {
  auto& succ = graph.adj[static_cast<std::size_t>(from)];
  if (std::find(succ.begin(), succ.end(), to) == succ.end())
    succ.push_back(to);
}

template <typename ChannelOf>
ChannelGraph build_graph(const Torus& torus, const Placement& p,
                         const Router& router, i64 num_channels,
                         ChannelOf&& channel_of) {
  p.check_torus(torus);
  ChannelGraph graph;
  graph.adj.resize(static_cast<std::size_t>(num_channels));
  for (NodeId src : p.nodes()) {
    for (NodeId dst : p.nodes()) {
      if (src == dst) continue;
      for (const Path& path : router.paths(torus, src, dst)) {
        // Walk the path, assigning a channel per hop; the VC state is
        // tracked per dimension (reset when a new dimension begins).
        i32 prev_channel = -1;
        i32 current_dim = -1;
        i32 vc = 0;
        for (EdgeId e : path.edges) {
          const Link link = torus.link(e);
          if (link.dim != current_dim) {
            current_dim = link.dim;
            vc = 0;
          }
          const i32 channel = channel_of(e, vc);
          if (prev_channel >= 0) add_dep(graph, prev_channel, channel);
          // The VC upgrade applies to the *next* hop in this dimension.
          if (crosses_dateline(torus, link)) vc = 1;
          prev_channel = channel;
        }
      }
    }
  }
  return graph;
}

}  // namespace

ChannelGraph physical_channel_graph(const Torus& torus, const Placement& p,
                                    const Router& router) {
  return build_graph(torus, p, router, torus.num_directed_edges(),
                     [](EdgeId e, i32 /*vc*/) { return static_cast<i32>(e); });
}

ChannelGraph dateline_channel_graph(const Torus& torus, const Placement& p,
                                    const Router& router) {
  return build_graph(
      torus, p, router, torus.num_directed_edges() * 2,
      [](EdgeId e, i32 vc) { return static_cast<i32>(e * 2 + vc); });
}

bool crosses_dateline(const Torus& torus, const Link& link) {
  const i32 k = torus.radix(link.dim);
  const i32 a = torus.coord_of(link.tail, link.dim);
  return (link.dir == Dir::Pos && a == k - 1) ||
         (link.dir == Dir::Neg && a == 0);
}

bool has_cycle(const ChannelGraph& graph) {
  // Iterative three-color DFS.
  enum : unsigned char { White, Gray, Black };
  const std::size_t n = graph.adj.size();
  std::vector<unsigned char> color(n, White);
  std::vector<std::pair<i32, std::size_t>> stack;  // (node, next child idx)
  for (std::size_t root = 0; root < n; ++root) {
    if (color[root] != White) continue;
    stack.emplace_back(static_cast<i32>(root), 0);
    color[root] = Gray;
    while (!stack.empty()) {
      auto& [node, child] = stack.back();
      const auto& succ = graph.adj[static_cast<std::size_t>(node)];
      if (child < succ.size()) {
        const i32 next = succ[child++];
        if (color[static_cast<std::size_t>(next)] == Gray) return true;
        if (color[static_cast<std::size_t>(next)] == White) {
          color[static_cast<std::size_t>(next)] = Gray;
          stack.emplace_back(next, 0);
        }
      } else {
        color[static_cast<std::size_t>(node)] = Black;
        stack.pop_back();
      }
    }
  }
  return false;
}

bool deadlock_free_with_datelines(const Torus& torus, const Placement& p,
                                  const Router& router) {
  return !has_cycle(dateline_channel_graph(torus, p, router));
}

}  // namespace tp
