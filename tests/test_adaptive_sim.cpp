// Tests for the hop-by-hop minimal-adaptive simulator.

#include <gtest/gtest.h>

#include "src/load/complete_exchange.h"
#include "src/obs/linkprobe.h"
#include "src/placement/placement.h"
#include "src/routing/adaptive.h"
#include "src/routing/odr.h"
#include "src/simulate/adaptive_sim.h"
#include "src/simulate/fault.h"
#include "src/simulate/fault_schedule.h"
#include "src/simulate/network_sim.h"
#include "src/simulate/traffic.h"
#include "src/util/error.h"
#include "src/util/prng.h"
#include "tests/reference_adaptive_sim.h"

namespace tp {
namespace {

std::vector<Demand> complete_exchange_demands(const Placement& p) {
  std::vector<Demand> demands;
  for (NodeId src : p.nodes())
    for (NodeId dst : p.nodes())
      if (src != dst) demands.push_back(Demand{src, dst, 0});
  return demands;
}

TEST(AdaptiveSim, SingleMessageMinimalLatency) {
  Torus t(2, 5);
  const NodeId src = 0, dst = t.node_id(Coord{2, 2});
  for (AdaptivePolicy policy :
       {AdaptivePolicy::RandomMinimal, AdaptivePolicy::LeastQueue}) {
    AdaptiveNetworkSim sim(t, policy);
    const SimMetrics m = sim.run({Demand{src, dst, 0}});
    EXPECT_EQ(m.delivered, 1);
    EXPECT_EQ(m.cycles, t.lee_distance(src, dst));
  }
}

TEST(AdaptiveSim, DeliversTheCompleteExchange) {
  Torus t(2, 6);
  const Placement p = linear_placement(t);
  const auto demands = complete_exchange_demands(p);
  AdaptiveNetworkSim sim(t, AdaptivePolicy::LeastQueue);
  const SimMetrics m = sim.run(demands, 3);
  EXPECT_EQ(m.delivered, static_cast<i64>(demands.size()));
  EXPECT_EQ(m.unroutable, 0);
  // Every delivery took at least its Lee distance; mean latency too.
  EXPECT_GE(m.mean_latency, 1.0);
}

TEST(AdaptiveSim, TotalForwardsEqualTotalLeeDistance) {
  // Minimal-adaptive hops never detour, so the sum of link forwards must
  // equal the sum of Lee distances over all demands.
  Torus t(2, 5);
  const Placement p = linear_placement(t);
  const auto demands = complete_exchange_demands(p);
  AdaptiveNetworkSim sim(t, AdaptivePolicy::RandomMinimal);
  const SimMetrics m = sim.run(demands, 9);
  i64 total = 0;
  for (i64 f : m.link_forwards) total += f;
  EXPECT_EQ(static_cast<double>(total), expected_total_load(t, p));
}

TEST(AdaptiveSim, LeastQueueNeverWorseThanOdrOnHeavyLoad) {
  // Against source-routed ODR under the same complete exchange, the
  // queue-aware adaptive policy routes around the diagonal hot links.
  Torus t(2, 8);
  const Placement p = multiple_linear_placement(t, 2);
  OdrRouter odr;
  const auto odr_traffic = complete_exchange_traffic(t, p, odr, 5);
  const SimMetrics odr_m = NetworkSim(t).run(odr_traffic.messages);

  AdaptiveNetworkSim sim(t, AdaptivePolicy::LeastQueue);
  const SimMetrics ad_m = sim.run(complete_exchange_demands(p), 5);
  EXPECT_EQ(ad_m.delivered, odr_m.delivered);
  EXPECT_LE(ad_m.cycles, odr_m.cycles);
}

TEST(AdaptiveSim, RoutesAroundFaultsWhenAMinimalLinkSurvives) {
  Torus t(2, 6);
  const NodeId src = t.node_id(Coord{0, 0});
  const NodeId dst = t.node_id(Coord{2, 2});
  // Fail one of the two minimal first hops; the other direction remains.
  EdgeSet faults(t);
  const EdgeId blocked = t.edge_id(src, 0, Dir::Pos);
  faults.insert(blocked);
  faults.insert(t.reverse_edge(blocked));
  AdaptiveNetworkSim sim(t, AdaptivePolicy::LeastQueue, &faults);
  const SimMetrics m = sim.run({Demand{src, dst, 0}});
  EXPECT_EQ(m.delivered, 1);
  EXPECT_EQ(m.cycles, 4);
  EXPECT_EQ(m.link_forwards[static_cast<std::size_t>(blocked)], 0);
}

TEST(AdaptiveSim, DropsWhenEveryMinimalLinkIsFaulted) {
  Torus t(2, 6);
  const NodeId src = t.node_id(Coord{0, 0});
  const NodeId dst = t.node_id(Coord{2, 2});  // strictly +,+ minimal
  EdgeSet faults(t);
  for (i32 dim = 0; dim < 2; ++dim) {
    const EdgeId e = t.edge_id(src, dim, Dir::Pos);
    faults.insert(e);
    faults.insert(t.reverse_edge(e));
  }
  AdaptiveNetworkSim sim(t, AdaptivePolicy::LeastQueue, &faults);
  const SimMetrics m = sim.run({Demand{src, dst, 0}});
  EXPECT_EQ(m.delivered, 0);
  EXPECT_EQ(m.unroutable, 1);
}

TEST(AdaptiveSim, SelfDemandDeliversImmediately) {
  Torus t(2, 4);
  AdaptiveNetworkSim sim(t, AdaptivePolicy::RandomMinimal);
  const SimMetrics m = sim.run({Demand{3, 3, 0}});
  EXPECT_EQ(m.delivered, 1);
  EXPECT_EQ(m.cycles, 0);
}

TEST(AdaptiveSim, ValidatesDemands) {
  Torus t(2, 4);
  AdaptiveNetworkSim sim(t, AdaptivePolicy::LeastQueue);
  EXPECT_THROW(sim.run({Demand{0, 99, 0}}), Error);
  EXPECT_THROW(sim.run({Demand{0, 1, -1}}), Error);
}

TEST(AdaptiveSim, StaggeredInjection) {
  Torus t(1, 8);
  AdaptiveNetworkSim sim(t, AdaptivePolicy::LeastQueue);
  const SimMetrics m = sim.run({Demand{0, 1, 5}});
  EXPECT_EQ(m.cycles, 6);
  EXPECT_DOUBLE_EQ(m.mean_latency, 1.0);
}

TEST(AdaptiveSim, LatencyHistogramCountsEveryDelivery) {
  // SimMetrics::latency is filled on every run: one sample per delivered
  // message, summing to the same total as mean_latency.  The faulted run
  // strands some messages, which must not be sampled.
  Torus t(2, 6);
  const Placement p = linear_placement(t);
  const auto demands = complete_exchange_demands(p);
  const EdgeSet faults = sample_wire_faults(t, 6, 3);
  for (AdaptivePolicy policy :
       {AdaptivePolicy::RandomMinimal, AdaptivePolicy::LeastQueue}) {
    for (const EdgeSet* f : {static_cast<const EdgeSet*>(nullptr), &faults}) {
      const SimMetrics m = AdaptiveNetworkSim(t, policy, f).run(demands, 7);
      EXPECT_EQ(m.unroutable > 0, f != nullptr);
      ASSERT_GT(m.delivered, 0);
      EXPECT_EQ(m.latency.count, m.delivered);
      EXPECT_DOUBLE_EQ(static_cast<double>(m.latency.sum) /
                           static_cast<double>(m.latency.count),
                       m.mean_latency);
      EXPECT_GT(m.latency_p50(), 0.0);
    }
  }
}

// --- differential: AdaptiveNetworkSim against the stand-alone loop -------
//
// tests/reference_adaptive_sim.h keeps the adaptive simulator as it was
// before it ran on NetworkSim's flat core.  The result counters, per-link
// forwards and mean latency must match it bit for bit, with and without a
// link probe, and so must the probe's per-link forward, busy-cycle and
// peak-queue totals.

void expect_same_metrics(const SimMetrics& a, const SimMetrics& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.unroutable, b.unroutable);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.rerouted, b.rerouted);
  EXPECT_EQ(a.fail_events, b.fail_events);
  EXPECT_EQ(a.repair_events, b.repair_events);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.max_link_forwards, b.max_link_forwards);
  EXPECT_EQ(a.link_forwards, b.link_forwards);
  EXPECT_EQ(a.mean_latency, b.mean_latency);  // same sum, same order
}

void expect_same_probe_totals(const obs::LinkProbe& a,
                              const obs::LinkProbe& b) {
  ASSERT_EQ(a.links().size(), b.links().size());
  for (std::size_t i = 0; i < a.links().size(); ++i) {
    EXPECT_EQ(a.links()[i].forwards, b.links()[i].forwards) << "link " << i;
    EXPECT_EQ(a.links()[i].busy_cycles, b.links()[i].busy_cycles)
        << "link " << i;
    EXPECT_EQ(a.links()[i].peak_queue, b.links()[i].peak_queue)
        << "link " << i;
  }
}

/// Runs `demands` through AdaptiveNetworkSim and the reference under both
/// policies, with and without a probe, and requires identical results;
/// returns the LeastQueue metrics.
SimMetrics expect_matches_reference(const Torus& t, const EdgeSet* faults,
                                    const RecoveryConfig& recovery,
                                    const std::vector<Demand>& demands,
                                    u64 seed) {
  SimMetrics last;
  for (AdaptivePolicy policy :
       {AdaptivePolicy::RandomMinimal, AdaptivePolicy::LeastQueue}) {
    SCOPED_TRACE(policy == AdaptivePolicy::LeastQueue ? "LeastQueue"
                                                      : "RandomMinimal");
    const SimMetrics plain =
        AdaptiveNetworkSim(t, policy, faults, nullptr, recovery)
            .run(demands, seed);
    expect_same_metrics(plain, testing_ref::reference_adaptive_run(
                                   t, policy, faults, nullptr, recovery,
                                   demands, seed));

    obs::LinkProbe probe(t.num_directed_edges(), t.dims());
    obs::LinkProbe ref_probe(t.num_directed_edges(), t.dims());
    const SimMetrics probed =
        AdaptiveNetworkSim(t, policy, faults, &probe, recovery)
            .run(demands, seed);
    expect_same_metrics(probed, testing_ref::reference_adaptive_run(
                                    t, policy, faults, &ref_probe, recovery,
                                    demands, seed));
    expect_same_probe_totals(probe, ref_probe);
    expect_same_metrics(plain, probed);
    last = plain;
  }
  return last;
}

constexpr u64 kSeeds[] = {7, 7919};

TEST(AdaptiveSimDifferential, FaultFreeCompleteExchange) {
  Torus t(2, 6);
  const auto demands =
      complete_exchange_demands(multiple_linear_placement(t, 2));
  for (const u64 seed : kSeeds) {
    const SimMetrics m = expect_matches_reference(t, nullptr, {}, demands, seed);
    EXPECT_EQ(m.delivered, static_cast<i64>(demands.size()));
    EXPECT_GT(m.max_queue_depth, 1);
  }
}

TEST(AdaptiveSimDifferential, StaticFaultsWithMidRouteUnroutable) {
  // Sampled wire faults strand some pairs; the extra demand (0,0)->(2,0)
  // leaves its source and finds its only minimal link dead one hop on.
  Torus t(2, 6);
  auto demands = complete_exchange_demands(linear_placement(t));
  const NodeId src = t.node_id(Coord{0, 0});
  const NodeId mid = t.node_id(Coord{1, 0});
  demands.push_back(Demand{src, t.node_id(Coord{2, 0}), 0});
  for (const u64 seed : kSeeds) {
    EdgeSet faults = sample_wire_faults(t, 5, seed);
    const EdgeId cut = t.edge_id(mid, 0, Dir::Pos);
    faults.insert(cut);
    faults.insert(t.reverse_edge(cut));
    faults.erase(t.edge_id(src, 0, Dir::Pos));
    faults.erase(t.reverse_edge(t.edge_id(src, 0, Dir::Pos)));
    const SimMetrics m = expect_matches_reference(t, &faults, {}, demands, seed);
    EXPECT_GT(m.unroutable, 0);
    EXPECT_EQ(m.delivered + m.unroutable, m.injected);
  }
}

TEST(AdaptiveSimDifferential, BernoulliFailRepairSchedule) {
  // Wires fail and repair mid-run on top of a static fault: messages
  // re-pick around dead backlogs, back off, retransmit from the source
  // when cornered, and with a small budget some are dropped.
  Torus t(2, 6);
  const auto demands =
      complete_exchange_demands(multiple_linear_placement(t, 2));
  AdaptiveMinimalRouter adaptive;
  i64 dropped = 0;
  for (const u64 seed : kSeeds) {
    const FaultSchedule schedule =
        FaultSchedule::bernoulli(t, 0.03, 0.05, 30, seed);
    const EdgeSet faults = sample_wire_faults(t, 1, seed);
    RecoveryConfig recovery;
    recovery.schedule = &schedule;
    recovery.reroute_router = &adaptive;
    recovery.max_retries = 2;
    const SimMetrics m =
        expect_matches_reference(t, &faults, recovery, demands, seed);
    EXPECT_GT(m.retries, 0);
    EXPECT_GT(m.rerouted, 0);
    EXPECT_GT(m.repair_events, 0);
    EXPECT_EQ(m.delivered + m.dropped, m.injected);
    dropped += m.dropped;
  }
  EXPECT_GT(dropped, 0);
}

TEST(AdaptiveSimDifferential, SingleWireSchedule) {
  Torus t(2, 5);
  const auto demands = complete_exchange_demands(linear_placement(t));
  AdaptiveMinimalRouter adaptive;
  for (const u64 seed : kSeeds) {
    Xoshiro256SS rng(seed);
    const EdgeId wire = t.undirected_id(static_cast<EdgeId>(
        rng.below(static_cast<u64>(t.num_directed_edges()))));
    const FaultSchedule schedule = FaultSchedule::single_wire(t, wire, 2);
    RecoveryConfig recovery;
    recovery.schedule = &schedule;
    recovery.reroute_router = &adaptive;
    const SimMetrics m =
        expect_matches_reference(t, nullptr, recovery, demands, seed);
    EXPECT_EQ(m.fail_events, 1);
    EXPECT_EQ(m.delivered, m.injected);
  }
}

TEST(AdaptiveSimDifferential, StaggeredInjectionsAndSelfDemands) {
  // Unsorted injection cycles (same-cycle demands keep input order), some
  // self-demands, and an idle gap the fault-free loop spins through.
  Torus t(3, 4);
  for (const u64 seed : kSeeds) {
    Xoshiro256SS rng(seed);
    std::vector<Demand> demands;
    for (int i = 0; i < 120; ++i) {
      const auto node = [&] {
        return static_cast<NodeId>(
            rng.below(static_cast<u64>(t.num_nodes())));
      };
      const NodeId src = node();
      const NodeId dst = i % 10 == 0 ? src : node();
      const i64 at = static_cast<i64>(rng.below(25)) + (i % 2) * 40;
      demands.push_back(Demand{src, dst, at});
    }
    const SimMetrics m = expect_matches_reference(t, nullptr, {}, demands, seed);
    EXPECT_EQ(m.delivered, static_cast<i64>(demands.size()));
  }
}

}  // namespace
}  // namespace tp
