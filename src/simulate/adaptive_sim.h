// Hop-by-hop minimal-adaptive simulation.
//
// NetworkSim replays source-routed paths (Definition 3's model).  This
// simulator instead decides each hop when the message reaches a node: it
// considers every minimal direction (any dimension with remaining cyclic
// distance; both directions on a tie) and joins the queue the policy
// picks.  Because every hop reduces the Lee distance, delivery is
// guaranteed; because decisions see queue state, congestion is routed
// around — the natural "more adaptive than UDR" end of the design space
// the paper's fault-tolerance discussion points toward.  Both simulators
// run the same store-and-forward cycle loop (store_forward.h); only the
// hop choice differs.

#pragma once

#include <vector>

#include "src/obs/linkprobe.h"
#include "src/simulate/fault_schedule.h"
#include "src/simulate/metrics.h"
#include "src/torus/graph.h"
#include "src/torus/torus.h"
#include "src/util/prng.h"

namespace tp {

/// How a node chooses among the allowed minimal outgoing links.
enum class AdaptivePolicy {
  RandomMinimal,  ///< uniform among minimal links (oblivious)
  LeastQueue,     ///< shortest queue, ties by link id (congestion-aware)
};

/// A source/destination demand for the adaptive simulator.
struct Demand {
  NodeId src = 0;
  NodeId dst = 0;
  i64 inject_cycle = 0;
};

class AdaptiveNetworkSim {
 public:
  /// `probe` (optional, not owned) receives per-link telemetry; null = off
  /// at the cost of one predicted null check per site (obs/linkprobe.h).
  /// `recovery` attaches a dynamic FaultSchedule: wires then fail and
  /// repair mid-run.  recovery.reroute_router (required; normally the
  /// AdaptiveMinimal router) serves as the reachability oracle: while any
  /// wire is dead, hop choices are restricted to links from whose head a
  /// fault-free path still exists, so messages never wander into dead-end
  /// regions.  A message finding no viable link waits out an exponential
  /// backoff (bounded by max_retries) and tries again — falling back to a
  /// retransmission from its source when its current node is cut off but
  /// the pair is still connected — instead of being dropped on the spot.
  /// With a null/empty schedule the dynamic machinery is off and results
  /// match the fault-free run bit-for-bit.
  AdaptiveNetworkSim(const Torus& torus, AdaptivePolicy policy,
                     const EdgeSet* faults = nullptr,
                     obs::LinkProbe* probe = nullptr,
                     RecoveryConfig recovery = {});

  /// Runs all demands to delivery.  Faulted links are never chosen; with
  /// no dynamic schedule a message whose every minimal link is faulted at
  /// some node counts as unroutable and is dropped there (minimal-adaptive
  /// routing does not misroute around faults); with one, it retries under
  /// backoff and counts as dropped only once the budget is spent.
  SimMetrics run(const std::vector<Demand>& demands, u64 seed = 1,
                 i64 max_cycles = 0);

 private:
  const Torus& torus_;
  AdaptivePolicy policy_;
  EdgeSet faults_;
  bool has_faults_ = false;
  obs::LinkProbe* probe_ = nullptr;
  RecoveryConfig recovery_;
};

}  // namespace tp
