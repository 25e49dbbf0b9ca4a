// Tests for the cycle-accurate store-and-forward simulator, the traffic
// generators, and fault injection.

#include <gtest/gtest.h>

#include <numeric>

#include "src/routing/fault_router.h"
#include "src/load/complete_exchange.h"
#include "src/obs/linkprobe.h"
#include "src/placement/placement.h"
#include "src/routing/adaptive.h"
#include "src/routing/odr.h"
#include "src/routing/udr.h"
#include "src/simulate/fault.h"
#include "src/simulate/fault_schedule.h"
#include "src/simulate/network_sim.h"
#include "src/simulate/traffic.h"
#include "tests/reference_network_sim.h"

namespace tp {
namespace {

TEST(NetworkSim, SingleMessageTakesLeeDistanceCycles) {
  Torus t(2, 5);
  OdrRouter odr;
  const NodeId src = 0, dst = t.node_id(Coord{2, 1});
  SimMessage m{odr.canonical_path(t, src, dst), 0};
  NetworkSim sim(t);
  const SimMetrics metrics = sim.run({m});
  EXPECT_EQ(metrics.delivered, 1);
  EXPECT_EQ(metrics.cycles, t.lee_distance(src, dst));
  EXPECT_DOUBLE_EQ(metrics.mean_latency,
                   static_cast<double>(t.lee_distance(src, dst)));
}

TEST(NetworkSim, TwoMessagesContendOnASharedLink) {
  // Both messages need link (0,0)->(0,1) first: one waits a cycle.
  Torus t(1, 8);
  OdrRouter odr;
  std::vector<SimMessage> msgs{{odr.canonical_path(t, 0, 2), 0},
                               {odr.canonical_path(t, 0, 3), 0}};
  NetworkSim sim(t);
  const SimMetrics metrics = sim.run(msgs);
  EXPECT_EQ(metrics.delivered, 2);
  // Unblocked makespan would be 3; serialization on the first link makes
  // the second message one cycle late.
  EXPECT_EQ(metrics.cycles, 4);
  EXPECT_EQ(metrics.max_queue_depth, 2);
}

TEST(NetworkSim, ParallelMessagesDoNotInterfere) {
  Torus t(2, 4);
  OdrRouter odr;
  std::vector<SimMessage> msgs{
      {odr.canonical_path(t, t.node_id(Coord{0, 0}), t.node_id(Coord{0, 1})), 0},
      {odr.canonical_path(t, t.node_id(Coord{1, 0}), t.node_id(Coord{1, 1})), 0},
      {odr.canonical_path(t, t.node_id(Coord{2, 0}), t.node_id(Coord{2, 1})), 0}};
  NetworkSim sim(t);
  const SimMetrics metrics = sim.run(msgs);
  EXPECT_EQ(metrics.cycles, 1);
  EXPECT_EQ(metrics.delivered, 3);
}

TEST(NetworkSim, StaggeredInjection) {
  Torus t(1, 8);
  OdrRouter odr;
  std::vector<SimMessage> msgs{{odr.canonical_path(t, 0, 1), 5}};
  NetworkSim sim(t);
  const SimMetrics metrics = sim.run(msgs);
  EXPECT_EQ(metrics.cycles, 6);
  EXPECT_DOUBLE_EQ(metrics.mean_latency, 1.0);
}

TEST(NetworkSim, LinkForwardCountsMatchPathEdges) {
  Torus t(2, 4);
  OdrRouter odr;
  const Path path = odr.canonical_path(t, 0, t.node_id(Coord{1, 2}));
  NetworkSim sim(t);
  const SimMetrics metrics = sim.run({SimMessage{path, 0}});
  i64 total = std::accumulate(metrics.link_forwards.begin(),
                              metrics.link_forwards.end(), i64{0});
  EXPECT_EQ(total, path.length());
  for (EdgeId e : path.edges)
    EXPECT_EQ(metrics.link_forwards[static_cast<std::size_t>(e)], 1);
}

TEST(NetworkSim, CompleteExchangeDeliversEverything) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  OdrRouter odr;
  const auto traffic = complete_exchange_traffic(t, p, odr, 7);
  EXPECT_EQ(static_cast<i64>(traffic.messages.size()),
            p.size() * (p.size() - 1));
  NetworkSim sim(t);
  const SimMetrics metrics = sim.run(traffic.messages);
  EXPECT_EQ(metrics.delivered, p.size() * (p.size() - 1));
  EXPECT_EQ(metrics.unroutable, 0);
}

TEST(NetworkSim, MakespanAtLeastMaxLoad) {
  // The busiest link must transmit its entire load one message per cycle,
  // so the makespan is at least E_max (ODR's loads are deterministic).
  Torus t(2, 6);
  const Placement p = linear_placement(t);
  OdrRouter odr;
  const auto traffic = complete_exchange_traffic(t, p, odr, 3);
  NetworkSim sim(t);
  const SimMetrics metrics = sim.run(traffic.messages);
  const double emax = odr_loads(t, p).max_load();
  EXPECT_GE(metrics.cycles, static_cast<i64>(emax));
  EXPECT_GE(static_cast<double>(metrics.max_link_forwards), emax - 1e-9);
}

TEST(NetworkSim, SimulatedLinkTrafficMatchesAnalyticLoadsForOdr) {
  // ODR has one path per pair, so the simulator's per-link forward counts
  // must equal Definition 4's loads exactly.
  Torus t(2, 5);
  const Placement p = linear_placement(t);
  OdrRouter odr;
  const auto traffic = complete_exchange_traffic(t, p, odr, 11);
  NetworkSim sim(t);
  const SimMetrics metrics = sim.run(traffic.messages);
  const LoadMap loads = odr_loads(t, p);
  for (EdgeId e = 0; e < t.num_directed_edges(); ++e)
    EXPECT_DOUBLE_EQ(
        static_cast<double>(metrics.link_forwards[static_cast<std::size_t>(e)]),
        loads[e])
        << t.edge_str(e);
}

TEST(NetworkSim, FaultedPathIsDropped) {
  Torus t(1, 6);
  OdrRouter odr;
  const Path path = odr.canonical_path(t, 0, 2);
  EdgeSet faults(t);
  faults.insert(path.edges[1]);
  NetworkSim sim(t, &faults);
  const SimMetrics metrics = sim.run({SimMessage{path, 0}});
  EXPECT_EQ(metrics.delivered, 0);
  EXPECT_EQ(metrics.unroutable, 1);
}

TEST(Traffic, PermutationTrafficSendsAtMostOnePerProcessor) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  UdrRouter udr;
  const auto traffic = permutation_traffic(t, p, udr, 19);
  EXPECT_LE(static_cast<i64>(traffic.messages.size()), p.size());
  for (const SimMessage& m : traffic.messages) m.path.verify_minimal(t);
}

TEST(Traffic, FaultAwareGenerationAvoidsFailedLinks) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  UdrRouter udr;
  const EdgeSet faults = sample_wire_faults(t, 3, 23);
  const auto traffic = complete_exchange_traffic(t, p, udr, 5, &faults);
  for (const SimMessage& m : traffic.messages)
    for (EdgeId e : m.path.edges) EXPECT_FALSE(faults.contains(e));
  // Everything that was generated also gets delivered under faults.
  NetworkSim sim(t, &faults);
  const SimMetrics metrics = sim.run(traffic.messages);
  EXPECT_EQ(metrics.delivered,
            static_cast<i64>(traffic.messages.size()));
}

TEST(Fault, SampleWireFaultsTakesBothDirections) {
  Torus t(2, 4);
  const EdgeSet faults = sample_wire_faults(t, 5, 31);
  EXPECT_EQ(faults.size(), 10);  // 5 wires, 2 directions each
  for (EdgeId e = 0; e < t.num_directed_edges(); ++e)
    if (faults.contains(e)) {
      EXPECT_TRUE(faults.contains(t.reverse_edge(e)));
    }
}

TEST(Fault, OdrLosesPairsUdrKeeps) {
  // The paper's fault-tolerance claim: UDR's s! paths keep pairs connected
  // where ODR's single path fails.  Find a fault set that hits some ODR
  // path; UDR must still route every pair when few wires fail.
  Torus t(2, 5);
  const Placement p = linear_placement(t);
  OdrRouter odr;
  UdrRouter udr;
  bool found_demonstration = false;
  for (u64 seed = 0; seed < 10 && !found_demonstration; ++seed) {
    const EdgeSet faults = sample_wire_faults(t, 2, seed);
    const double odr_frac = routable_pair_fraction(t, p, odr, faults);
    const double udr_frac = routable_pair_fraction(t, p, udr, faults);
    EXPECT_GE(udr_frac, odr_frac - 1e-12);
    if (odr_frac < 1.0 && udr_frac == 1.0) found_demonstration = true;
  }
  EXPECT_TRUE(found_demonstration);
}

TEST(Fault, CountUnroutablePairsZeroWithoutFaults) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  const EdgeSet none(t);
  EXPECT_EQ(count_unroutable_pairs(t, p, UdrRouter(), none), 0);
  EXPECT_DOUBLE_EQ(routable_pair_fraction(t, p, OdrRouter(), none), 1.0);
}

TEST(FaultRouter, FiltersFaultedPaths) {
  Torus t(2, 5);
  UdrRouter udr;
  const NodeId src = 0, dst = t.node_id(Coord{1, 1});
  const auto all = udr.paths(t, src, dst);
  ASSERT_EQ(all.size(), 2u);
  EdgeSet faults(t);
  faults.insert(all[0].edges[0]);
  FaultTolerantRouter ft(udr, faults);
  const auto surviving = ft.paths(t, src, dst);
  ASSERT_EQ(surviving.size(), 1u);
  EXPECT_EQ(surviving[0].edges, all[1].edges);
  EXPECT_EQ(ft.num_paths(t, src, dst), 1);
  EXPECT_EQ(ft.name(), "UDR+faults");
  Xoshiro256SS rng(2);
  EXPECT_EQ(ft.sample_path(t, src, dst, rng).edges, all[1].edges);
}

TEST(FaultRouter, ThrowsWhenNoPathSurvives) {
  Torus t(2, 5);
  OdrRouter odr;
  const NodeId src = 0, dst = t.node_id(Coord{0, 1});
  EdgeSet faults(t);
  faults.insert(odr.canonical_path(t, src, dst).edges[0]);
  FaultTolerantRouter ft(odr, faults);
  EXPECT_EQ(ft.num_paths(t, src, dst), 0);
  Xoshiro256SS rng(2);
  EXPECT_THROW(ft.sample_path(t, src, dst, rng), Error);
}

TEST(NetworkSim, EmptyRun) {
  Torus t(2, 3);
  NetworkSim sim(t);
  const SimMetrics metrics = sim.run({});
  EXPECT_EQ(metrics.cycles, 0);
  EXPECT_EQ(metrics.delivered, 0);
  EXPECT_DOUBLE_EQ(metrics.bottleneck_utilization(), 0.0);
}

TEST(NetworkSim, BottleneckUtilizationAccountsForFlits) {
  // One message over one link with 3 flits: the link is busy for all 3
  // cycles of the makespan, so utilization is exactly 1.  (A regression
  // for the pre-flit formula, which divided forwards by cycles and
  // reported 1/3.)
  Torus t(1, 8);
  OdrRouter odr;
  SimConfig config;
  config.flits_per_message = 3;
  NetworkSim sim(t, nullptr, config);
  const SimMetrics metrics = sim.run({SimMessage{odr.canonical_path(t, 0, 1), 0}});
  EXPECT_EQ(metrics.cycles, 3);
  EXPECT_EQ(metrics.max_link_forwards, 1);
  EXPECT_EQ(metrics.flits_per_message, 3);
  EXPECT_DOUBLE_EQ(metrics.bottleneck_utilization(), 1.0);
}

TEST(NetworkSim, LatencyPercentilesComeFromTheHistogram) {
  // Two messages with known latencies 1 and 2 on disjoint links.
  Torus t(2, 4);
  OdrRouter odr;
  std::vector<SimMessage> msgs{
      {odr.canonical_path(t, t.node_id(Coord{0, 0}), t.node_id(Coord{0, 1})), 0},
      {odr.canonical_path(t, t.node_id(Coord{1, 0}), t.node_id(Coord{1, 2})), 0}};
  NetworkSim sim(t);
  const SimMetrics metrics = sim.run(msgs);
  EXPECT_EQ(metrics.latency.count, 2);
  EXPECT_EQ(metrics.latency.min, 1);
  EXPECT_EQ(metrics.latency_max(), 2);
  EXPECT_GE(metrics.latency_p50(), 1.0);
  EXPECT_LE(metrics.latency_p95(), 2.0);
  EXPECT_LE(metrics.latency_p50(), metrics.latency_p95());
}

TEST(NetworkSim, BottleneckUtilizationIsHighUnderCompleteExchange) {
  Torus t(2, 6);
  const Placement p = linear_placement(t);
  OdrRouter odr;
  const auto traffic = complete_exchange_traffic(t, p, odr, 1);
  NetworkSim sim(t);
  const SimMetrics metrics = sim.run(traffic.messages);
  EXPECT_GT(metrics.bottleneck_utilization(), 0.3);
  EXPECT_LE(metrics.bottleneck_utilization(), 1.0);
}

// --- differential: NetworkSim against the deque-based reference ---------
//
// tests/reference_network_sim.h keeps the direct formulation of the model
// (a deque per link, Path pointers, per-message verify_connected).  Every
// observable of a run must match it exactly: the SimMetrics fields, the
// per-link forward counts, the latency histogram and, with a probe
// attached, every per-link counter and windowed series.

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
  EXPECT_EQ(a.flits_per_message, b.flits_per_message);
  EXPECT_EQ(a.mean_latency, b.mean_latency);  // same sum, same order
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.max_link_forwards, b.max_link_forwards);
  EXPECT_EQ(a.link_forwards, b.link_forwards);
  EXPECT_EQ(a.latency.bounds, b.latency.bounds);
  EXPECT_EQ(a.latency.counts, b.latency.counts);
  EXPECT_EQ(a.latency.count, b.latency.count);
  EXPECT_EQ(a.latency.sum, b.latency.sum);
  EXPECT_EQ(a.latency.min, b.latency.min);
  EXPECT_EQ(a.latency.max, b.latency.max);
}

void expect_same_series(const obs::TimeSeries& a, const obs::TimeSeries& b) {
  ASSERT_EQ(a.num_windows(), b.num_windows());
  EXPECT_EQ(a.window_width(), b.window_width());
  for (std::size_t i = 0; i < a.num_windows(); ++i) {
    EXPECT_EQ(a.window(i).count, b.window(i).count) << "window " << i;
    EXPECT_EQ(a.window(i).sum, b.window(i).sum) << "window " << i;
    EXPECT_EQ(a.window(i).min, b.window(i).min) << "window " << i;
    EXPECT_EQ(a.window(i).max, b.window(i).max) << "window " << i;
  }
}

void expect_same_probe(const obs::LinkProbe& a, const obs::LinkProbe& b) {
  ASSERT_EQ(a.links().size(), b.links().size());
  for (std::size_t i = 0; i < a.links().size(); ++i) {
    EXPECT_EQ(a.links()[i].forwards, b.links()[i].forwards) << "link " << i;
    EXPECT_EQ(a.links()[i].busy_cycles, b.links()[i].busy_cycles)
        << "link " << i;
    EXPECT_EQ(a.links()[i].peak_queue, b.links()[i].peak_queue)
        << "link " << i;
    EXPECT_EQ(a.links()[i].stalls, b.links()[i].stalls) << "link " << i;
  }
  expect_same_series(a.forwards_series(), b.forwards_series());
  expect_same_series(a.queue_series(), b.queue_series());
  expect_same_series(a.stall_series(), b.stall_series());
}

/// Runs `msgs` through NetworkSim and the reference, with and without a
/// link probe, and requires identical results; returns NetworkSim's.
SimMetrics expect_matches_reference(const Torus& t, const EdgeSet* faults,
                                    SimConfig config,
                                    const std::vector<SimMessage>& msgs) {
  config.probe = nullptr;
  const SimMetrics plain = NetworkSim(t, faults, config).run(msgs);
  expect_same_metrics(plain,
                      testing_ref::reference_run(t, faults, config, msgs));

  obs::LinkProbe probe(t.num_directed_edges(), t.dims());
  obs::LinkProbe ref_probe(t.num_directed_edges(), t.dims());
  config.probe = &probe;
  const SimMetrics probed = NetworkSim(t, faults, config).run(msgs);
  config.probe = &ref_probe;
  expect_same_metrics(probed,
                      testing_ref::reference_run(t, faults, config, msgs));
  expect_same_probe(probe, ref_probe);
  expect_same_metrics(plain, probed);
  return plain;
}

TEST(NetworkSimDifferential, CompleteExchangeUnderEveryRouter) {
  Torus t(3, 4);
  const Placement p = multiple_linear_placement(t, 2);
  OdrRouter odr;
  UdrRouter udr;
  AdaptiveMinimalRouter adaptive;
  for (const Router* router :
       {static_cast<const Router*>(&odr), static_cast<const Router*>(&udr),
        static_cast<const Router*>(&adaptive)}) {
    const auto traffic = complete_exchange_traffic(t, p, *router, 13);
    const SimMetrics m =
        expect_matches_reference(t, nullptr, {}, traffic.messages);
    EXPECT_EQ(m.delivered, static_cast<i64>(traffic.messages.size()))
        << router->name();
  }
}

TEST(NetworkSimDifferential, UnsortedMultiCycleInjections) {
  // Two saturating open-loop draws over 30 cycles, merged and shuffled so
  // the simulator's stable injection sort has real work: a source often
  // injects twice in one cycle onto the same first link, and same-cycle
  // messages must keep their relative input order.
  Torus t(2, 6);
  const Placement p = multiple_linear_placement(t, 2);
  UdrRouter udr;
  auto msgs = random_rate_traffic(t, p, udr, 0.9, 30, 3).messages;
  for (SimMessage& m : random_rate_traffic(t, p, udr, 0.9, 30, 4).messages)
    msgs.push_back(std::move(m));
  Xoshiro256SS rng(17);
  for (std::size_t i = msgs.size(); i > 1; --i)
    std::swap(msgs[i - 1], msgs[static_cast<std::size_t>(rng.below(i))]);
  const SimMetrics m = expect_matches_reference(t, nullptr, {}, msgs);
  EXPECT_EQ(m.delivered, static_cast<i64>(msgs.size()));
  EXPECT_GT(m.max_queue_depth, 2);
}

TEST(NetworkSimDifferential, StaticFaultsAndSelfDelivery) {
  // Paths drawn without the fault set, so some cross a dead link and are
  // counted unroutable; one empty self-path is delivered at injection.
  Torus t(2, 5);
  const Placement p = linear_placement(t);
  OdrRouter odr;
  auto traffic = complete_exchange_traffic(t, p, odr, 2);
  Path self;
  self.source = self.target = p.nodes().front();
  traffic.messages.push_back(SimMessage{self, 3});
  const EdgeSet faults = sample_wire_faults(t, 4, 9);
  const SimMetrics m =
      expect_matches_reference(t, &faults, {}, traffic.messages);
  EXPECT_GT(m.unroutable, 0);
  EXPECT_EQ(m.delivered + m.unroutable, m.injected);
}

TEST(NetworkSimDifferential, MultiFlitMessages) {
  Torus t(2, 6);
  const Placement p = multiple_linear_placement(t, 2);
  UdrRouter udr;
  const auto traffic = complete_exchange_traffic(t, p, udr, 4);
  SimConfig config;
  config.flits_per_message = 3;
  const SimMetrics m =
      expect_matches_reference(t, nullptr, config, traffic.messages);
  EXPECT_EQ(m.flits_per_message, 3);
}

TEST(NetworkSimDifferential, DynamicFaultsRerouteRetryAndDrop) {
  // A dense Bernoulli schedule with slow repairs under ODR: messages lose
  // their next hop mid-path, reroute from where they sit, fall back to a
  // retransmission from the source when cornered, and with a small retry
  // budget some are dropped.  Static faults seed the live fault set too.
  Torus t(2, 6);
  const Placement p = multiple_linear_placement(t, 2);
  OdrRouter odr;
  const auto traffic = complete_exchange_traffic(t, p, odr, 8);
  const FaultSchedule schedule =
      FaultSchedule::bernoulli(t, 0.02, 0.05, 30, 21);
  const EdgeSet faults = sample_wire_faults(t, 1, 5);
  SimConfig config;
  config.recovery.schedule = &schedule;
  config.recovery.reroute_router = &odr;
  config.recovery.max_retries = 3;
  config.recovery.seed = 99;
  const SimMetrics m =
      expect_matches_reference(t, &faults, config, traffic.messages);
  EXPECT_GT(m.rerouted, 0);
  EXPECT_GT(m.retries, m.rerouted);
  EXPECT_GT(m.dropped, 0);
  EXPECT_GT(m.repair_events, 0);
  EXPECT_EQ(m.delivered + m.dropped, m.injected);
}

TEST(NetworkSimDifferential, DynamicFaultsWithMultiFlitUdr) {
  Torus t(2, 5);
  const Placement p = linear_placement(t);
  UdrRouter udr;
  const auto traffic = complete_exchange_traffic(t, p, udr, 6);
  const FaultSchedule schedule =
      FaultSchedule::bernoulli(t, 0.01, 0.2, 40, 4);
  SimConfig config;
  config.flits_per_message = 2;
  config.recovery.schedule = &schedule;
  config.recovery.reroute_router = &udr;
  const SimMetrics m =
      expect_matches_reference(t, nullptr, config, traffic.messages);
  EXPECT_GT(m.rerouted, 0);
}

TEST(NetworkSim, RejectsMalformedPaths) {
  // prepare checks every path against the link tables with the same three
  // conditions as Path::verify_connected.
  Torus t(2, 4);
  OdrRouter odr;
  const Path good = odr.canonical_path(t, 0, t.node_id(Coord{1, 2}));
  NetworkSim sim(t);
  Path out_of_range = good;
  out_of_range.edges[1] = t.num_directed_edges();
  EXPECT_THROW(sim.run({SimMessage{out_of_range, 0}}), Error);
  Path negative = good;
  negative.edges[0] = -1;
  EXPECT_THROW(sim.run({SimMessage{negative, 0}}), Error);
  Path gap = good;
  gap.edges.erase(gap.edges.begin() + 1);
  EXPECT_THROW(sim.run({SimMessage{gap, 0}}), Error);
  Path short_of_target = good;
  short_of_target.edges.pop_back();
  EXPECT_THROW(sim.run({SimMessage{short_of_target, 0}}), Error);
  Path empty_but_apart;
  empty_but_apart.source = 0;
  empty_but_apart.target = 1;
  EXPECT_THROW(sim.run({SimMessage{empty_but_apart, 0}}), Error);
  EXPECT_THROW(sim.run({SimMessage{good, -1}}), Error);
  EXPECT_EQ(sim.run({SimMessage{good, 0}}).delivered, 1);
}

}  // namespace
}  // namespace tp
