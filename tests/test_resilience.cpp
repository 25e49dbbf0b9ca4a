// Graceful-degradation analysis (analysis/resilience.h): the single-fault
// invariant on the paper's Figure-1 exchange, baseline reproduction at
// fault rate 0, and byte-exact determinism of the JSONL output across
// runs and thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/analysis/resilience.h"
#include "src/load/complete_exchange.h"
#include "src/placement/placement.h"
#include "src/routing/adaptive.h"
#include "src/routing/odr.h"
#include "src/routing/udr.h"
#include "src/simulate/fault.h"
#include "src/simulate/fault_schedule.h"
#include "src/simulate/traffic.h"
#include "src/util/error.h"
#include "tests/reference_network_sim.h"

namespace tp {
namespace {

std::vector<EdgeId> canonical_wires(const Torus& t) {
  std::vector<EdgeId> wires;
  for (EdgeId e = 0; e < t.num_directed_edges(); ++e)
    if (t.undirected_id(e) == e) wires.push_back(e);
  return wires;
}

EdgeSet wire_fault(const Torus& t, EdgeId wire) {
  EdgeSet faults(t);
  faults.insert(wire);
  faults.insert(t.reverse_edge(wire));
  return faults;
}

// The paper's Figure-1 / E1 case: the linear placement on T_3^2.  Under
// any single wire fault, UDR's s! = 2 edge-disjoint paths per pair and
// full minimal adaptivity keep the exchange complete, while ODR drops
// exactly the pairs whose unique canonical path crossed the dead wire.
TEST(Resilience, SingleFaultInvariantOnFigure1Exchange) {
  Torus t(2, 3);
  const Placement p = linear_placement(t);
  OdrRouter odr;
  UdrRouter udr;
  AdaptiveMinimalRouter adaptive;

  i64 total_odr_drops = 0;
  for (const EdgeId wire : canonical_wires(t)) {
    const FaultSchedule schedule = FaultSchedule::single_wire(t, wire);

    // UDR and ADAPTIVE: 100% delivery under every possible wire fault.
    for (const Router* router :
         {static_cast<const Router*>(&udr),
          static_cast<const Router*>(&adaptive)}) {
      const DegradationReport r =
          degradation_report(t, p, *router, schedule);
      EXPECT_EQ(r.delivered, r.injected)
          << router->name() << " wire " << wire;
      EXPECT_EQ(r.dropped, 0) << router->name() << " wire " << wire;
      EXPECT_DOUBLE_EQ(r.delivered_fraction, 1.0);
    }

    // ODR: the dropped pairs are exactly the statically unroutable ones.
    const DegradationReport r = degradation_report(t, p, odr, schedule);
    const i64 unroutable =
        count_unroutable_pairs(t, p, odr, wire_fault(t, wire));
    EXPECT_EQ(r.dropped, unroutable) << "wire " << wire;
    EXPECT_EQ(r.delivered, r.injected - unroutable) << "wire " << wire;
    total_odr_drops += r.dropped;
  }

  // Every pair's unique canonical path has 2 links, so summing drops over
  // all wires counts each pair once per path link: 6 pairs * 2 = 12 — the
  // same 12 unit-loaded links Figure 1 shows.
  EXPECT_EQ(total_odr_drops, 12);
}

TEST(Resilience, RateZeroReproducesTheBaseline) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  UdrRouter udr;
  const std::vector<DegradationReport> curve =
      resilience_sweep(t, p, udr, {0.0});
  ASSERT_EQ(curve.size(), 1u);
  const DegradationReport& r = curve[0];
  EXPECT_EQ(r.fault_rate, 0.0);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.rerouted, 0);
  EXPECT_EQ(r.fail_events, 0);
  EXPECT_EQ(r.cycles, r.baseline_cycles);
  EXPECT_DOUBLE_EQ(r.delivered_fraction, 1.0);
  EXPECT_DOUBLE_EQ(r.completion_inflation, 1.0);
  EXPECT_DOUBLE_EQ(r.emax_inflation, 1.0);
  EXPECT_EQ(r.degraded_emax, r.baseline_emax);
}

TEST(Resilience, MessagesAreDroppedOrDeliveredNeverLost) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  ResilienceConfig config;
  config.repair_prob = 0.2;
  OdrRouter odr;
  UdrRouter udr;
  for (const Router* router :
       {static_cast<const Router*>(&odr), static_cast<const Router*>(&udr)}) {
    const std::vector<DegradationReport> curve =
        resilience_sweep(t, p, *router, {0.005, 0.02}, config);
    for (const DegradationReport& r : curve) {
      // Every message is accounted for: delivered or dropped, never lost.
      // (Makespan may go either way — drops can relieve congestion — so
      // only the conservation law is pinned.)
      EXPECT_EQ(r.delivered + r.dropped, r.injected) << r.router_name;
      EXPECT_GT(r.baseline_cycles, 0) << r.router_name;
    }
  }
}

TEST(Resilience, JsonlIsByteIdenticalAcrossRuns) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  UdrRouter udr;
  ResilienceConfig config;
  config.repair_prob = 0.1;
  const std::vector<double> rates{0.0, 0.002, 0.01};
  const std::string a =
      resilience_jsonl(resilience_sweep(t, p, udr, rates, config));
  const std::string b =
      resilience_jsonl(resilience_sweep(t, p, udr, rates, config));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  // Stable schema: every line carries the full key set.
  for (const char* key :
       {"\"router\"", "\"fault_rate\"", "\"delivered\"", "\"dropped\"",
        "\"delivered_fraction\"", "\"completion_inflation\"",
        "\"degraded_emax\""})
    EXPECT_NE(a.find(key), std::string::npos) << key;
}

TEST(Resilience, WireCriticalityIsThreadCountInvariant) {
  Torus t(2, 3);
  const Placement p = linear_placement(t);
  OdrRouter odr;
  const std::vector<WireCriticality> serial = wire_criticality(t, p, odr);
  for (i32 threads : {2, 4, 7}) {
    const std::vector<WireCriticality> parallel =
        wire_criticality(t, p, odr, {}, threads);
    ASSERT_EQ(serial.size(), parallel.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].wire, parallel[i].wire);
      EXPECT_EQ(serial[i].dropped, parallel[i].dropped);
      EXPECT_EQ(serial[i].rerouted, parallel[i].rerouted);
      EXPECT_DOUBLE_EQ(serial[i].delivered_fraction,
                       parallel[i].delivered_fraction);
    }
  }
}

TEST(Resilience, WireCriticalityMatchesStaticUnroutability) {
  // Per wire, ODR's dynamic drop count equals the static
  // count_unroutable_pairs — the identity the module's header promises.
  Torus t(2, 3);
  const Placement p = linear_placement(t);
  OdrRouter odr;
  const std::vector<WireCriticality> ranking =
      wire_criticality(t, p, odr, {}, 2);
  EXPECT_EQ(static_cast<i64>(ranking.size()), t.num_undirected_edges());
  const i64 pairs = p.size() * (p.size() - 1);
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    const WireCriticality& w = ranking[i];
    EXPECT_EQ(w.dropped,
              count_unroutable_pairs(t, p, odr, wire_fault(t, w.wire)))
        << "wire " << w.wire;
    EXPECT_DOUBLE_EQ(
        w.delivered_fraction,
        1.0 - static_cast<double>(w.dropped) / static_cast<double>(pairs));
    // Ranked most critical first.
    if (i > 0) {
      EXPECT_LE(ranking[i - 1].delivered_fraction, w.delivered_fraction);
    }
  }
}

TEST(Resilience, UdrSurvivesWhereOdrDegrades) {
  // The quantitative form of Section 7's argument: under the same
  // single-wire faults, UDR's delivered fraction dominates ODR's, and at
  // least one wire actually hurts ODR.
  Torus t(2, 3);
  const Placement p = linear_placement(t);
  OdrRouter odr;
  UdrRouter udr;
  const std::vector<WireCriticality> odr_rank = wire_criticality(t, p, odr);
  const std::vector<WireCriticality> udr_rank = wire_criticality(t, p, udr);
  for (const WireCriticality& w : udr_rank)
    EXPECT_DOUBLE_EQ(w.delivered_fraction, 1.0) << "wire " << w.wire;
  EXPECT_LT(odr_rank.front().delivered_fraction, 1.0);
}

// The fault window as the analysis was first composed: the fault-free
// makespan of a fresh traffic draw, simulated by the reference.
i64 reference_horizon(const Torus& t, const Placement& p, const Router& router,
                      const ResilienceConfig& config) {
  const TrafficResult traffic =
      complete_exchange_traffic(t, p, router, config.traffic_seed);
  return std::max<i64>(
      testing_ref::reference_run(t, nullptr, {}, traffic.messages).cycles, 1);
}

// The report as the analysis was first composed: a fresh traffic draw and
// a fresh fault-free run per report, both simulated by the deque-based
// reference, with E_max read from link probes.
DegradationReport reference_report(const Torus& t, const Placement& p,
                                   const Router& router,
                                   const FaultSchedule& schedule,
                                   const ResilienceConfig& config) {
  const TrafficResult traffic =
      complete_exchange_traffic(t, p, router, config.traffic_seed);
  auto probe_emax = [](const obs::LinkProbe& probe) {
    i64 best = 0;
    for (const obs::LinkCounters& c : probe.links())
      best = std::max(best, c.forwards);
    return static_cast<double>(best);
  };
  obs::LinkProbe base_probe(t.num_directed_edges(), t.dims());
  SimConfig base_config;
  base_config.probe = &base_probe;
  const SimMetrics base =
      testing_ref::reference_run(t, nullptr, base_config, traffic.messages);
  obs::LinkProbe deg_probe(t.num_directed_edges(), t.dims());
  SimConfig deg_config;
  deg_config.probe = &deg_probe;
  deg_config.recovery.schedule = &schedule;
  deg_config.recovery.reroute_router = &router;
  deg_config.recovery.max_retries = config.max_retries;
  deg_config.recovery.backoff_base = config.backoff_base;
  deg_config.recovery.seed = config.recovery_seed;
  const SimMetrics deg =
      testing_ref::reference_run(t, nullptr, deg_config, traffic.messages);

  DegradationReport r;
  r.router_name = router.name();
  r.injected = deg.injected;
  r.delivered = deg.delivered;
  r.dropped = deg.dropped;
  r.retries = deg.retries;
  r.rerouted = deg.rerouted;
  r.fail_events = deg.fail_events;
  r.repair_events = deg.repair_events;
  r.delivered_fraction =
      deg.injected > 0 ? static_cast<double>(deg.delivered) /
                             static_cast<double>(deg.injected)
                       : 1.0;
  r.baseline_cycles = base.cycles;
  r.cycles = deg.cycles;
  r.completion_inflation =
      base.cycles > 0 ? static_cast<double>(deg.cycles) /
                            static_cast<double>(base.cycles)
                      : 1.0;
  r.baseline_emax = probe_emax(base_probe);
  r.degraded_emax = probe_emax(deg_probe);
  r.emax_inflation =
      r.baseline_emax > 0.0 ? r.degraded_emax / r.baseline_emax : 1.0;
  return r;
}

// resilience_sweep shares one traffic draw and one fault-free baseline
// across its rates; the curve must equal, byte for byte, both the
// per-rate composition of the public calls and the reference report.
TEST(Resilience, SweepEqualsThePerRateComposition) {
  Torus t(2, 6);
  const Placement p = multiple_linear_placement(t, 2);
  OdrRouter odr;
  UdrRouter udr;
  AdaptiveMinimalRouter adaptive;
  ResilienceConfig config;
  config.traffic_seed = 7;
  config.schedule_seed = 19;
  config.recovery_seed = 28;
  config.repair_prob = 0.3;
  const std::vector<double> rates{0.0, 0.002, 0.01, 0.05};
  for (const Router* router :
       {static_cast<const Router*>(&odr), static_cast<const Router*>(&udr),
        static_cast<const Router*>(&adaptive)}) {
    const std::vector<DegradationReport> curve =
        resilience_sweep(t, p, *router, rates, config);
    ASSERT_EQ(curve.size(), rates.size());
    const i64 horizon = resilience_horizon(t, p, *router, config);
    const i64 ref_horizon = reference_horizon(t, p, *router, config);
    i64 rerouted = 0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const FaultSchedule schedule = FaultSchedule::bernoulli(
          t, rates[i], config.repair_prob, horizon, config.schedule_seed);
      DegradationReport composed =
          degradation_report(t, p, *router, schedule, config);
      composed.fault_rate = rates[i];
      const FaultSchedule ref_schedule = FaultSchedule::bernoulli(
          t, rates[i], config.repair_prob, ref_horizon, config.schedule_seed);
      DegradationReport reference =
          reference_report(t, p, *router, ref_schedule, config);
      reference.fault_rate = rates[i];
      EXPECT_EQ(encode_degradation_report(curve[i]),
                encode_degradation_report(composed))
          << router->name() << " rate " << rates[i];
      EXPECT_EQ(encode_degradation_report(curve[i]),
                encode_degradation_report(reference))
          << router->name() << " rate " << rates[i];
      rerouted += curve[i].rerouted;
    }
    EXPECT_GT(rerouted, 0) << router->name();
  }
}

TEST(Resilience, ExplicitHorizonOverridesTheMakespan) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  UdrRouter udr;
  ResilienceConfig config;
  EXPECT_EQ(exchange_baseline(t, p, udr, config).horizon,
            exchange_baseline(t, p, udr, config).metrics.cycles);
  config.horizon = 3;
  EXPECT_EQ(resilience_horizon(t, p, udr, config), 3);
  EXPECT_EQ(exchange_baseline(t, p, udr, config).horizon, 3);
}

TEST(Resilience, Validation) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  const Placement single(t, {0}, "one");
  UdrRouter udr;
  const FaultSchedule empty;
  EXPECT_THROW(degradation_report(t, single, udr, empty), Error);
  EXPECT_THROW(exchange_baseline(t, single, udr), Error);
  EXPECT_THROW(resilience_sweep(t, p, udr, {}), Error);
  EXPECT_THROW(resilience_sweep(t, p, udr, {1.5}), Error);
  EXPECT_THROW(resilience_sweep(t, p, udr, {-0.1}), Error);
  EXPECT_THROW(wire_criticality(t, p, udr, {}, 0), Error);
  EXPECT_THROW(export_resilience_jsonl({}, "/nonexistent-dir/out.jsonl"),
               Error);
}

}  // namespace
}  // namespace tp
