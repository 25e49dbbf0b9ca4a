#include "src/simulate/network_sim.h"

#include <algorithm>
#include <cstddef>

#include "src/simulate/store_forward.h"
#include "src/util/error.h"
#include "src/util/prng.h"
#include "src/util/small_vec.h"

namespace tp {

NetworkSim::NetworkSim(const Torus& torus, const EdgeSet* faults,
                       SimConfig config)
    : torus_(torus), faults_(torus), config_(config) {
  TP_REQUIRE(config_.flits_per_message >= 1, "flits_per_message must be >= 1");
  if (faults != nullptr) {
    has_faults_ = true;
    for (EdgeId e = 0; e < torus.num_directed_edges(); ++e)
      if (faults->contains(e)) faults_.insert(e);
  }
  check_sim_setup(torus, config_.probe, config_.recovery);
}

namespace {

/// Fills tail[e]/head[e] for every directed link by stride arithmetic:
/// the nodes are walked in id order with an odometer over their
/// coordinates (last dimension fastest), so no id is ever divided.
void link_endpoints(const Torus& torus, std::vector<NodeId>& tail,
                    std::vector<NodeId>& head) {
  const std::size_t d = static_cast<std::size_t>(torus.dims());
  tail.resize(static_cast<std::size_t>(torus.num_directed_edges()));
  head.resize(tail.size());
  SmallVec<i64> radix(d, 0);
  SmallVec<i64> stride(d, 0);
  for (std::size_t i = 0; i < d; ++i) {
    radix[i] = torus.radix(static_cast<i32>(i));
    stride[i] = torus.stride(static_cast<i32>(i));
  }
  SmallVec<i64> c(d, 0);
  std::size_t e = 0;
  for (NodeId node = 0; node < torus.num_nodes(); ++node) {
    for (std::size_t i = 0; i < d; ++i, e += 2) {
      const i64 wrap = (radix[i] - 1) * stride[i];
      tail[e] = tail[e + 1] = node;
      head[e] = c[i] == radix[i] - 1 ? node - wrap : node + stride[i];
      head[e + 1] = c[i] == 0 ? node + wrap : node - stride[i];
    }
    for (std::size_t i = d; i-- > 0;) {
      if (++c[i] < radix[i]) break;
      c[i] = 0;
    }
  }
}

/// Source routing (Definition 3): every message follows the path it was
/// injected with.  prepare copies each path into one edge arena; a
/// message's remaining route is arena[pos, end), and a reroute appends a
/// fresh range and points the message at it.
class SourceRoutes {
 public:
  SourceRoutes(const Torus& torus, const std::vector<SimMessage>& messages,
               const EdgeSet* faults, u64 reroute_seed)
      : torus_(torus),
        messages_(messages),
        faults_(faults),
        pos_(messages.size(), 0),
        end_(messages.size(), 0),
        reroute_rng_(reroute_seed) {}

  std::size_t size() const { return messages_.size(); }
  i64 inject_cycle(std::size_t m) const { return messages_[m].inject_cycle; }

  /// Every path is checked against the link tables, exactly as
  /// Path::verify_connected would: ids in range, consecutive links
  /// meeting head to tail, the last one entering the target.
  i64 prepare() {
    std::vector<NodeId> head;
    link_endpoints(torus_, tail_, head);
    std::size_t hops = 0;
    for (const SimMessage& m : messages_) hops += m.path.edges.size();
    arena_.reserve(hops);
    for (std::size_t i = 0; i < messages_.size(); ++i) {
      const Path& path = messages_[i].path;
      pos_[i] = arena_.size();
      NodeId at = path.source;
      for (const EdgeId e : path.edges) {
        TP_REQUIRE(e >= 0 && static_cast<std::size_t>(e) < tail_.size(),
                   "edge id out of range");
        TP_REQUIRE(tail_[static_cast<std::size_t>(e)] == at,
                   "path edges are not contiguous");
        at = head[static_cast<std::size_t>(e)];
        arena_.push_back(e);
      }
      TP_REQUIRE(at == path.target, "path does not end at its target");
      end_[i] = arena_.size();
    }
    return static_cast<i64>(arena_.size());
  }

  bool at_target(std::size_t m) const { return pos_[m] == end_[m]; }

  EdgeId inject(std::size_t m, const detail::SimNet& net) const {
    // With dynamic recovery the static pre-check is skipped: a blocked
    // hop is discovered at forward time and rerouted, not dropped.
    if (net.clock == nullptr && faults_ != nullptr &&
        std::any_of(arena_.begin() + static_cast<std::ptrdiff_t>(pos_[m]),
                    arena_.begin() + static_cast<std::ptrdiff_t>(end_[m]),
                    [&](EdgeId e) { return faults_->contains(e); }))
      return detail::kNoHop;
    return arena_[pos_[m]];
  }

  bool cross(std::size_t m, EdgeId) { return ++pos_[m] == end_[m]; }

  EdgeId land(std::size_t m, const detail::SimNet&) const {
    return arena_[pos_[m]];
  }

  /// A message whose next hop died backs off before it re-samples.
  EdgeId dead_link(std::size_t, const detail::SimNet&) const {
    return detail::kNoHop;
  }

  /// Re-samples a fault-free path from where the message sits (in front
  /// of its dead next hop).
  EdgeId wake(std::size_t m, const detail::SimNet& net) {
    const NodeId at = tail_[static_cast<std::size_t>(arena_[pos_[m]])];
    const NodeId dst = messages_[m].path.target;
    NodeId from = at;
    if (net.live->num_paths(torus_, at, dst) == 0) {
      // Cornered: no fault-free path from where the message sits, but
      // the pair may still be connected end-to-end — fall back to a
      // retransmission from the original source.  A pair is dropped
      // only once its source-to-target path set is (still) dead when
      // the budget runs out.
      from = messages_[m].path.source;
      if (from == at || net.live->num_paths(torus_, from, dst) == 0)
        return detail::kNoHop;
    }
    const Path fresh = net.live->sample_path(torus_, from, dst, reroute_rng_);
    pos_[m] = arena_.size();
    arena_.insert(arena_.end(), fresh.edges.begin(), fresh.edges.end());
    end_[m] = arena_.size();
    return arena_[pos_[m]];
  }

 private:
  const Torus& torus_;
  const std::vector<SimMessage>& messages_;
  const EdgeSet* faults_;
  std::vector<EdgeId> arena_;
  std::vector<std::size_t> pos_;
  std::vector<std::size_t> end_;
  std::vector<NodeId> tail_;  ///< tail node of every link, for wake
  Xoshiro256SS reroute_rng_;
};

}  // namespace

SimMetrics NetworkSim::run(const std::vector<SimMessage>& messages,
                           i64 max_cycles) {
  const EdgeSet* faults = has_faults_ ? &faults_ : nullptr;
  SourceRoutes routes(torus_, messages, faults, config_.recovery.seed);
  return detail::run_store_and_forward(torus_, faults, config_, routes,
                                       max_cycles);
}

}  // namespace tp
