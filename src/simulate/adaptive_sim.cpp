#include "src/simulate/adaptive_sim.h"

#include <cstddef>

#include "src/simulate/store_forward.h"
#include "src/util/error.h"
#include "src/util/small_vec.h"

namespace tp {

AdaptiveNetworkSim::AdaptiveNetworkSim(const Torus& torus,
                                       AdaptivePolicy policy,
                                       const EdgeSet* faults,
                                       obs::LinkProbe* probe,
                                       RecoveryConfig recovery)
    : torus_(torus),
      policy_(policy),
      faults_(torus),
      probe_(probe),
      recovery_(recovery) {
  if (faults != nullptr) {
    has_faults_ = true;
    for (EdgeId e = 0; e < torus.num_directed_edges(); ++e)
      if (faults->contains(e)) faults_.insert(e);
  }
  check_sim_setup(torus, probe_, recovery_);
}

namespace {

/// Hop-by-hop minimal-adaptive routing: a message at a node joins one of
/// the live minimal links toward its destination, picked by the policy.
class MinimalAdaptive {
 public:
  MinimalAdaptive(const Torus& torus, AdaptivePolicy policy,
                  const std::vector<Demand>& demands, const EdgeSet* faults,
                  u64 seed)
      : torus_(torus),
        policy_(policy),
        demands_(demands),
        faults_(faults),
        node_(demands.size(), 0),
        rng_(seed) {}

  std::size_t size() const { return demands_.size(); }
  i64 inject_cycle(std::size_t m) const { return demands_[m].inject_cycle; }

  i64 prepare() {
    i64 work = 0;
    for (std::size_t i = 0; i < demands_.size(); ++i) {
      const Demand& d = demands_[i];
      TP_REQUIRE(torus_.valid_node(d.src) && torus_.valid_node(d.dst),
                 "demand node out of range");
      node_[i] = d.src;
      work += torus_.lee_distance(d.src, d.dst);
    }
    return work;
  }

  bool at_target(std::size_t m) const {
    return demands_[m].src == demands_[m].dst;
  }

  EdgeId inject(std::size_t m, const detail::SimNet& net) {
    return pick(m, net);
  }

  bool cross(std::size_t m, EdgeId e) {
    node_[m] = torus_.link(e).head;
    return node_[m] == demands_[m].dst;
  }

  EdgeId land(std::size_t m, const detail::SimNet& net) {
    return pick(m, net);
  }

  /// The node re-routes a dead link's backlog over its other minimal
  /// links at once (native adaptivity), backing off only when all of them
  /// are dead too.
  EdgeId dead_link(std::size_t m, const detail::SimNet& net) {
    return pick(m, net);
  }

  /// Tries again from where the message sits; when that node is cut off
  /// but the pair is still connected end-to-end, retransmits from the
  /// original source.
  EdgeId wake(std::size_t m, const detail::SimNet& net) {
    const EdgeId e = pick(m, net);
    const Demand& d = demands_[m];
    if (e != detail::kNoHop || node_[m] == d.src ||
        net.live->num_paths(torus_, d.src, d.dst) == 0)
      return e;
    node_[m] = d.src;
    return pick(m, net);
  }

 private:
  /// The policy's pick among the live minimal links from the message's
  /// node, or kNoHop when every one of them is dead.
  EdgeId pick(std::size_t m, const detail::SimNet& net) {
    const NodeId node = node_[m];
    const NodeId dst = demands_[m].dst;
    auto alive = [&](EdgeId e) {
      if (faults_ != nullptr && faults_->contains(e)) return false;
      return net.clock == nullptr || !net.clock->is_dead(e);
    };
    candidates_.clear();
    for (i32 dim = 0; dim < torus_.dims(); ++dim) {
      const Way way = torus_.shortest_way(dim, torus_.coord_of(node, dim),
                                          torus_.coord_of(dst, dim));
      if (way == Way::None) continue;
      if (way != Way::Neg) {
        const EdgeId e = torus_.edge_id(node, dim, Dir::Pos);
        if (alive(e)) candidates_.push_back(e);
      }
      if (way != Way::Pos) {
        const EdgeId e = torus_.edge_id(node, dim, Dir::Neg);
        if (alive(e)) candidates_.push_back(e);
      }
    }
    if (net.clock != nullptr && net.clock->dead_wires() > 0) {
      // Reachability lookahead: only enter links from whose head a
      // fault-free path still exists, so a message never wanders into a
      // region the live faults cut off from its destination.
      std::size_t keep = 0;
      for (std::size_t i = 0; i < candidates_.size(); ++i) {
        const NodeId head = torus_.link(candidates_[i]).head;
        if (head == dst || net.live->num_paths(torus_, head, dst) > 0)
          candidates_[keep++] = candidates_[i];
      }
      candidates_.resize(keep);
    }
    if (candidates_.empty()) return detail::kNoHop;
    if (policy_ == AdaptivePolicy::RandomMinimal)
      return candidates_[static_cast<std::size_t>(
          rng_.below(candidates_.size()))];
    // LeastQueue: the shortest queue, ties to the first candidate.
    EdgeId best = candidates_[0];
    for (std::size_t i = 1; i < candidates_.size(); ++i) {
      const EdgeId e = candidates_[i];
      if (net.links[static_cast<std::size_t>(e)].size <
          net.links[static_cast<std::size_t>(best)].size)
        best = e;
    }
    return best;
  }

  const Torus& torus_;
  AdaptivePolicy policy_;
  const std::vector<Demand>& demands_;
  const EdgeSet* faults_;
  std::vector<NodeId> node_;  ///< where each message sits
  Xoshiro256SS rng_;
  SmallVec<EdgeId, 2 * kMaxDims> candidates_;
};

}  // namespace

SimMetrics AdaptiveNetworkSim::run(const std::vector<Demand>& demands,
                                   u64 seed, i64 max_cycles) {
  const EdgeSet* faults = has_faults_ ? &faults_ : nullptr;
  MinimalAdaptive hops(torus_, policy_, demands, faults, seed);
  SimConfig config;
  config.probe = probe_;
  config.recovery = recovery_;
  return detail::run_store_and_forward(torus_, faults, config, hops,
                                       max_cycles);
}

}  // namespace tp
