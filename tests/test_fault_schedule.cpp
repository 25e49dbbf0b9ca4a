// Dynamic fault timelines (FaultSchedule / FaultClock) and the
// simulators' retry/reroute recovery built on top of them.

#include <gtest/gtest.h>

#include <vector>

#include "src/obs/linkprobe.h"
#include "src/placement/placement.h"
#include "src/routing/adaptive.h"
#include "src/routing/odr.h"
#include "src/routing/udr.h"
#include "src/simulate/adaptive_sim.h"
#include "src/simulate/fault_schedule.h"
#include "src/simulate/network_sim.h"
#include "src/simulate/traffic.h"
#include "src/simulate/wormhole.h"
#include "src/util/error.h"

namespace tp {
namespace {

EdgeId wire_of(const Torus& t, NodeId node, i32 dim) {
  return t.undirected_id(t.edge_id(node, dim, Dir::Pos));
}

TEST(FaultSchedule, FromEventsSortsStablyAndValidates) {
  Torus t(2, 3);
  const EdgeId w0 = wire_of(t, 0, 0);
  const EdgeId w1 = wire_of(t, 0, 1);
  const FaultSchedule s = FaultSchedule::from_events(
      t, {{7, w1, FaultEventKind::Repair},
          {2, w0, FaultEventKind::Fail},
          {7, w0, FaultEventKind::Fail},
          {2, w1, FaultEventKind::Fail}});
  ASSERT_EQ(static_cast<i64>(s.events().size()), 4);
  // Sorted by cycle; same-cycle events keep their given order.
  EXPECT_EQ(s.events()[0].wire, w0);
  EXPECT_EQ(s.events()[1].wire, w1);
  EXPECT_EQ(s.events()[2].wire, w1);
  EXPECT_EQ(s.events()[3].wire, w0);
  EXPECT_EQ(s.last_cycle(), 7);
  EXPECT_EQ(s.num_failures(), 3);
  EXPECT_EQ(s.num_repairs(), 1);

  // Negative cycles and non-canonical wires are rejected.
  EXPECT_THROW(
      FaultSchedule::from_events(t, {{-1, w0, FaultEventKind::Fail}}), Error);
  const EdgeId non_canonical = t.reverse_edge(w0) == w0
                                   ? w0 + 1  // unreachable on a torus
                                   : t.reverse_edge(w0);
  if (t.undirected_id(non_canonical) != non_canonical) {
    EXPECT_THROW(FaultSchedule::from_events(
                     t, {{0, non_canonical, FaultEventKind::Fail}}),
                 Error);
  }
  EXPECT_THROW(FaultSchedule::from_events(
                   t, {{0, t.num_directed_edges(), FaultEventKind::Fail}}),
               Error);
}

TEST(FaultSchedule, EmptyScheduleDisablesRecovery) {
  const FaultSchedule empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.last_cycle(), 0);
  RecoveryConfig recovery;
  EXPECT_FALSE(recovery.enabled());
  recovery.schedule = &empty;
  EXPECT_FALSE(recovery.enabled());
}

TEST(FaultSchedule, SingleWireIsOnePermanentFailure) {
  Torus t(2, 4);
  const EdgeId w = wire_of(t, 3, 1);
  const FaultSchedule s = FaultSchedule::single_wire(t, w, 5);
  ASSERT_EQ(static_cast<i64>(s.events().size()), 1);
  EXPECT_EQ(s.events()[0].cycle, 5);
  EXPECT_EQ(s.events()[0].wire, w);
  EXPECT_EQ(s.events()[0].kind, FaultEventKind::Fail);
  EXPECT_EQ(s.num_repairs(), 0);
  // A non-canonical id is canonicalized, not rejected.
  const FaultSchedule via_rev = FaultSchedule::single_wire(t, t.reverse_edge(w));
  EXPECT_EQ(via_rev.events()[0].wire, w);
}

TEST(FaultSchedule, BernoulliIsDeterministicAndWellFormed) {
  Torus t(2, 4);
  const FaultSchedule a = FaultSchedule::bernoulli(t, 0.05, 0.2, 50, 11);
  const FaultSchedule b = FaultSchedule::bernoulli(t, 0.05, 0.2, 50, 11);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].cycle, b.events()[i].cycle);
    EXPECT_EQ(a.events()[i].wire, b.events()[i].wire);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
  }
  i64 prev = 0;
  for (const FaultEvent& ev : a.events()) {
    EXPECT_GE(ev.cycle, prev);
    EXPECT_LT(ev.cycle, 50);
    EXPECT_EQ(t.undirected_id(ev.wire), ev.wire);
    prev = ev.cycle;
  }
  // Rate 0 is silence; rate 1 with no repair fails every wire exactly once.
  EXPECT_TRUE(FaultSchedule::bernoulli(t, 0.0, 0.0, 50, 1).empty());
  const FaultSchedule all = FaultSchedule::bernoulli(t, 1.0, 0.0, 50, 1);
  EXPECT_EQ(all.num_failures(), t.num_undirected_edges());
  EXPECT_EQ(all.num_repairs(), 0);
  EXPECT_THROW(FaultSchedule::bernoulli(t, 1.5, 0.0, 10, 1), Error);
  EXPECT_THROW(FaultSchedule::bernoulli(t, 0.1, -0.1, 10, 1), Error);
  EXPECT_THROW(FaultSchedule::bernoulli(t, 0.1, 0.1, -1, 1), Error);
}

TEST(FaultSchedule, PeriodicAlternatesFailAndRepairPerWire) {
  Torus t(1, 6);
  const i64 mtbf = 7, mttr = 3, horizon = 40;
  const FaultSchedule s = FaultSchedule::periodic(t, mtbf, mttr, horizon, 3);
  const FaultSchedule same = FaultSchedule::periodic(t, mtbf, mttr, horizon, 3);
  EXPECT_EQ(s.events().size(), same.events().size());
  // Per wire the timeline strictly alternates Fail, Repair, Fail, ...
  // with the configured outage length.
  for (EdgeId e = 0; e < t.num_directed_edges(); ++e) {
    if (t.undirected_id(e) != e) continue;
    std::vector<FaultEvent> mine;
    for (const FaultEvent& ev : s.events())
      if (ev.wire == e) mine.push_back(ev);
    ASSERT_FALSE(mine.empty());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const bool expect_fail = i % 2 == 0;
      EXPECT_EQ(mine[i].kind == FaultEventKind::Fail, expect_fail);
      if (i > 0 && expect_fail) {
        EXPECT_EQ(mine[i].cycle - mine[i - 1].cycle, mtbf);
      }
      if (!expect_fail) {
        EXPECT_EQ(mine[i].cycle - mine[i - 1].cycle, mttr);
      }
    }
  }
  EXPECT_THROW(FaultSchedule::periodic(t, 0, 1, 10, 1), Error);
  EXPECT_THROW(FaultSchedule::periodic(t, 1, 0, 10, 1), Error);
}

TEST(FaultClock, ReplaysEventsAndBumpsEpochOnlyOnChange) {
  Torus t(2, 3);
  const EdgeId w0 = wire_of(t, 0, 0);
  const EdgeId w1 = wire_of(t, 0, 1);
  const FaultSchedule s = FaultSchedule::from_events(
      t, {{2, w1, FaultEventKind::Fail},
          {5, w0, FaultEventKind::Fail},
          {7, w1, FaultEventKind::Repair},
          {7, w0, FaultEventKind::Fail}});  // redundant: w0 already dead

  FaultClock clock(t, s);
  EXPECT_FALSE(clock.advance_to(1));
  EXPECT_EQ(clock.epoch(), 0u);
  EXPECT_EQ(clock.dead_wires(), 0);

  EXPECT_TRUE(clock.advance_to(2));
  EXPECT_EQ(clock.epoch(), 1u);
  EXPECT_EQ(clock.dead_wires(), 1);
  EXPECT_TRUE(clock.is_dead(w1));
  EXPECT_TRUE(clock.is_dead(t.reverse_edge(w1)));  // wire = both directions
  EXPECT_FALSE(clock.is_dead(w0));

  EXPECT_TRUE(clock.advance_to(6));
  EXPECT_EQ(clock.epoch(), 2u);
  EXPECT_EQ(clock.dead_wires(), 2);

  // Cycle 7 repairs w1 and replays a redundant fail of w0 (a no-op that
  // must not distort the counters).
  EXPECT_TRUE(clock.advance_to(10));
  EXPECT_EQ(clock.epoch(), 3u);
  EXPECT_EQ(clock.dead_wires(), 1);
  EXPECT_FALSE(clock.is_dead(w1));
  EXPECT_TRUE(clock.is_dead(w0));
  EXPECT_EQ(clock.fails_applied(), 2);
  EXPECT_EQ(clock.repairs_applied(), 1);
  EXPECT_FALSE(clock.advance_to(99));
  EXPECT_EQ(clock.epoch(), 3u);
}

TEST(FaultClock, InitialFaultSetCountsAsDead) {
  Torus t(2, 3);
  const EdgeId w = wire_of(t, 1, 0);
  EdgeSet initial(t);
  initial.insert(w);
  initial.insert(t.reverse_edge(w));
  const FaultSchedule empty;
  FaultClock clock(t, empty, &initial);
  EXPECT_TRUE(clock.is_dead(w));
  EXPECT_EQ(clock.dead_wires(), 1);
  EXPECT_EQ(clock.epoch(), 0u);
}

TEST(Recovery, NonEmptyScheduleRequiresRerouteRouter) {
  Torus t(2, 3);
  const FaultSchedule s = FaultSchedule::single_wire(t, wire_of(t, 0, 0));
  SimConfig config;
  config.recovery.schedule = &s;
  EXPECT_THROW(NetworkSim(t, nullptr, config), Error);
  EXPECT_THROW(
      AdaptiveNetworkSim(t, AdaptivePolicy::RandomMinimal, nullptr, nullptr,
                         config.recovery),
      Error);
  WormholeConfig wh;
  wh.recovery.schedule = &s;
  EXPECT_THROW(WormholeSim(t, wh), Error);
}

TEST(Recovery, NetworkSimEmptyScheduleMatchesFaultFreeBitForBit) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  UdrRouter udr;
  const TrafficResult traffic = complete_exchange_traffic(t, p, udr, 5);

  obs::LinkProbe plain_probe(t.num_directed_edges(), t.dims());
  SimConfig plain_config;
  plain_config.probe = &plain_probe;
  const SimMetrics plain =
      NetworkSim(t, nullptr, plain_config).run(traffic.messages);

  const FaultSchedule empty;
  obs::LinkProbe rec_probe(t.num_directed_edges(), t.dims());
  SimConfig rec_config;
  rec_config.probe = &rec_probe;
  rec_config.recovery.schedule = &empty;
  rec_config.recovery.reroute_router = &udr;
  const SimMetrics rec =
      NetworkSim(t, nullptr, rec_config).run(traffic.messages);

  EXPECT_EQ(plain.cycles, rec.cycles);
  EXPECT_EQ(plain.delivered, rec.delivered);
  EXPECT_EQ(plain.max_queue_depth, rec.max_queue_depth);
  EXPECT_EQ(plain.max_link_forwards, rec.max_link_forwards);
  EXPECT_EQ(plain.link_forwards, rec.link_forwards);
  EXPECT_EQ(rec.dropped, 0);
  EXPECT_EQ(rec.retries, 0);
  EXPECT_EQ(rec.fail_events, 0);
  ASSERT_EQ(plain_probe.links().size(), rec_probe.links().size());
  for (std::size_t i = 0; i < plain_probe.links().size(); ++i)
    EXPECT_EQ(plain_probe.links()[i].forwards, rec_probe.links()[i].forwards);
}

TEST(Recovery, NetworkSimReroutesAroundAMidRunFault) {
  // UDR gives every s=2 pair two edge-disjoint paths: killing one wire
  // mid-run forces reroutes but loses nothing.
  Torus t(2, 3);
  const Placement p = linear_placement(t);
  UdrRouter udr;
  const TrafficResult traffic = complete_exchange_traffic(t, p, udr, 7);
  ASSERT_GT(traffic.messages.size(), 0u);
  const EdgeId w = t.undirected_id(traffic.messages[0].path.edges[0]);
  const FaultSchedule s = FaultSchedule::single_wire(t, w, 0);

  SimConfig config;
  config.recovery.schedule = &s;
  config.recovery.reroute_router = &udr;
  const SimMetrics m = NetworkSim(t, nullptr, config).run(traffic.messages);
  EXPECT_EQ(m.delivered, m.injected);
  EXPECT_EQ(m.dropped, 0);
  EXPECT_GE(m.rerouted, 1);
  EXPECT_EQ(m.fail_events, 1);
  EXPECT_EQ(m.repair_events, 0);
}

TEST(Recovery, NetworkSimRetriesAcrossARepair) {
  // ODR's unique path dies at cycle 0 and comes back at cycle 6: the
  // message must wait out backoffs and still deliver.
  Torus t(2, 3);
  OdrRouter odr;
  const NodeId src = 0, dst = t.node_id(Coord{1, 1});
  const Path path = odr.canonical_path(t, src, dst);
  const EdgeId w = t.undirected_id(path.edges[0]);
  const FaultSchedule s = FaultSchedule::from_events(
      t, {{0, w, FaultEventKind::Fail}, {6, w, FaultEventKind::Repair}});

  SimConfig config;
  config.recovery.schedule = &s;
  config.recovery.reroute_router = &odr;
  const SimMetrics m = NetworkSim(t, nullptr, config).run({{path, 0}});
  EXPECT_EQ(m.delivered, 1);
  EXPECT_EQ(m.dropped, 0);
  EXPECT_GE(m.retries, 1);
  EXPECT_EQ(m.fail_events, 1);
  EXPECT_EQ(m.repair_events, 1);
}

TEST(Recovery, NetworkSimDropsWhenEveryPathStaysDead) {
  Torus t(2, 3);
  OdrRouter odr;
  const NodeId src = 0, dst = t.node_id(Coord{1, 1});
  const Path path = odr.canonical_path(t, src, dst);
  const FaultSchedule s =
      FaultSchedule::single_wire(t, t.undirected_id(path.edges[0]));

  SimConfig config;
  config.recovery.schedule = &s;
  config.recovery.reroute_router = &odr;
  config.recovery.max_retries = 3;
  const SimMetrics m = NetworkSim(t, nullptr, config).run({{path, 0}});
  EXPECT_EQ(m.delivered, 0);
  EXPECT_EQ(m.dropped, 1);  // dropped, never crashed
  EXPECT_EQ(m.injected, 1);
}

TEST(Recovery, AdaptiveSimEmptyScheduleMatchesFaultFreeBitForBit) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  std::vector<Demand> demands;
  for (NodeId a : p.nodes())
    for (NodeId b : p.nodes())
      if (a != b) demands.push_back({a, b, 0});

  AdaptiveMinimalRouter adaptive;
  for (AdaptivePolicy policy :
       {AdaptivePolicy::RandomMinimal, AdaptivePolicy::LeastQueue}) {
    obs::LinkProbe plain_probe(t.num_directed_edges(), t.dims());
    const SimMetrics plain =
        AdaptiveNetworkSim(t, policy, nullptr, &plain_probe).run(demands, 9);

    const FaultSchedule empty;
    RecoveryConfig recovery;
    recovery.schedule = &empty;
    recovery.reroute_router = &adaptive;
    obs::LinkProbe rec_probe(t.num_directed_edges(), t.dims());
    const SimMetrics rec =
        AdaptiveNetworkSim(t, policy, nullptr, &rec_probe, recovery)
            .run(demands, 9);

    EXPECT_EQ(plain.cycles, rec.cycles);
    EXPECT_EQ(plain.delivered, rec.delivered);
    EXPECT_EQ(plain.max_queue_depth, rec.max_queue_depth);
    ASSERT_EQ(plain_probe.links().size(), rec_probe.links().size());
    for (std::size_t i = 0; i < plain_probe.links().size(); ++i)
      EXPECT_EQ(plain_probe.links()[i].forwards,
                rec_probe.links()[i].forwards);
  }
}

TEST(Recovery, AdaptiveSimSurvivesEverySingleWireFault) {
  Torus t(2, 3);
  const Placement p = linear_placement(t);
  std::vector<Demand> demands;
  for (NodeId a : p.nodes())
    for (NodeId b : p.nodes())
      if (a != b) demands.push_back({a, b, 0});

  AdaptiveMinimalRouter adaptive;
  for (EdgeId e = 0; e < t.num_directed_edges(); ++e) {
    if (t.undirected_id(e) != e) continue;
    const FaultSchedule s = FaultSchedule::single_wire(t, e);
    RecoveryConfig recovery;
    recovery.schedule = &s;
    recovery.reroute_router = &adaptive;
    const SimMetrics m =
        AdaptiveNetworkSim(t, AdaptivePolicy::LeastQueue, nullptr, nullptr,
                           recovery)
            .run(demands, 3);
    EXPECT_EQ(m.delivered, static_cast<i64>(demands.size()))
        << "wire " << e;
    EXPECT_EQ(m.dropped, 0) << "wire " << e;
  }
}

TEST(Recovery, WormholeEmptyScheduleMatchesFaultFreeBitForBit) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  UdrRouter udr;
  const TrafficResult traffic = complete_exchange_traffic(t, p, udr, 3);
  std::vector<Path> paths;
  for (const SimMessage& m : traffic.messages) paths.push_back(m.path);

  WormholeConfig plain;
  const WormholeResult a = WormholeSim(t, plain).run(paths);

  const FaultSchedule empty;
  WormholeConfig rec = plain;
  rec.recovery.schedule = &empty;
  rec.recovery.reroute_router = &udr;
  const WormholeResult b = WormholeSim(t, rec).run(paths);

  EXPECT_EQ(a.deadlocked, b.deadlocked);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.flits_moved, b.flits_moved);
  EXPECT_EQ(b.dropped, 0);
  EXPECT_EQ(b.retries, 0);
}

TEST(Recovery, WormholeTearsDownAndRetransmitsOverAFreshPath) {
  // The worm's first wire dies at cycle 1 (mid-transmission); teardown
  // frees the VCs and the retry resamples a surviving UDR path.
  Torus t(2, 4);
  OdrRouter odr;
  UdrRouter udr;
  const Path path = odr.canonical_path(t, 0, t.node_id(Coord{1, 1}));
  const FaultSchedule s =
      FaultSchedule::single_wire(t, t.undirected_id(path.edges[0]), 1);

  WormholeConfig config;
  config.message_flits = 4;
  config.recovery.schedule = &s;
  config.recovery.reroute_router = &udr;
  const WormholeResult r = WormholeSim(t, config).run({path});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.delivered, 1);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_GE(r.retries, 1);
  EXPECT_GE(r.rerouted, 1);
  EXPECT_EQ(r.fail_events, 1);
}

TEST(Recovery, WormholeDropsWhenNoPathSurvives) {
  // On a ring every pair has one minimal path; a permanent mid-path fault
  // exhausts the retry budget and the message is dropped, not deadlocked.
  Torus t(1, 6);
  OdrRouter odr;
  const Path path = odr.canonical_path(t, 0, 2);
  const FaultSchedule s =
      FaultSchedule::single_wire(t, t.undirected_id(path.edges[1]), 1);

  WormholeConfig config;
  config.message_flits = 3;
  config.recovery.schedule = &s;
  config.recovery.reroute_router = &odr;
  config.recovery.max_retries = 2;
  const WormholeResult r = WormholeSim(t, config).run({path});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.delivered, 0);
  EXPECT_EQ(r.dropped, 1);
}

}  // namespace
}  // namespace tp
