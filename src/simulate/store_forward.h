// The store-and-forward cycle loop NetworkSim and AdaptiveNetworkSim share
// (internal to src/simulate/).
//
// Every directed link transmits one message at a time and stays busy
// config.flits_per_message cycles per message; waiting messages queue FIFO
// per link.  The loop owns everything but the routing decision: the link
// queues (intrusive lists threaded through one next[] array indexed by
// message), the in-transit list, fault-clock replay, the retry queue and
// its backoff, the cycle budget, the idle fast-forward, the registry,
// trace and probe hooks, and the metrics.  Where a message goes next is
// the hop policy's decision, a compile-time parameter with these members:
//
//   std::size_t size() const;          messages in the run
//   i64 inject_cycle(std::size_t m) const;
//   i64 prepare();                     checks the input; returns its total
//                                      hop count (sizes the cycle budget)
//   bool at_target(std::size_t m) const;           at injection
//   EdgeId inject(std::size_t m, const SimNet&);   first hop
//   bool cross(std::size_t m, EdgeId e);   m crossed e; true if delivered
//   EdgeId land(std::size_t m, const SimNet&);     next hop after a cross
//   EdgeId dead_link(std::size_t m, const SimNet&);  m's queued link died
//   EdgeId wake(std::size_t m, const SimNet&);     m's backoff expired
//
// A hook returning kNoHop blocks the message: without a dynamic schedule
// it counts as unroutable; with one it waits out a backoff (wake runs
// when it expires) until its retry budget is spent and it is dropped.
//
// A traversal that completes at cycle c+1 lands at the end of cycle c,
// before cycle c+1's fault events apply, so the policy picks the next hop
// against the fault state the message crossed under.

#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "src/obs/obs.h"
#include "src/routing/fault_router.h"
#include "src/simulate/fault_schedule.h"
#include "src/simulate/metrics.h"
#include "src/simulate/network_sim.h"
#include "src/util/error.h"

namespace tp::detail {

inline constexpr EdgeId kNoHop = -1;
inline constexpr std::size_t kNoMsg = std::numeric_limits<std::size_t>::max();

/// One link's FIFO: an intrusive list of message indices through next[].
struct LinkQueue {
  std::size_t first = kNoMsg;  ///< queue front
  std::size_t last = kNoMsg;   ///< queue back
  i64 size = 0;
  i64 busy_until = 0;   ///< cycle the current transmission completes
  bool active = false;  ///< listed in the active-link list
};

/// What a hop policy may read of the running network.
struct SimNet {
  const std::vector<LinkQueue>& links;
  const FaultClock* clock = nullptr;  ///< null without a dynamic schedule
  /// Paths over the live fault set (null without a dynamic schedule).
  const FaultTolerantRouter* live = nullptr;
};

template <class Policy>
SimMetrics run_store_and_forward(const Torus& torus, const EdgeSet* faults,
                                 const SimConfig& config, Policy& policy,
                                 i64 max_cycles) {
  TP_OBS_SCOPE("sim.run");
  obs::MetricsRegistry& reg = obs::registry();
  const bool obs_on = reg.enabled();
  obs::HistogramHandle h_qdepth, h_inj_cycle, h_del_cycle, h_latency;
  if (obs_on) {
    h_qdepth = reg.histogram("sim.queue_depth");
    h_inj_cycle = reg.histogram("sim.injected_per_cycle");
    h_del_cycle = reg.histogram("sim.delivered_per_cycle");
    h_latency = reg.histogram("sim.latency");
  }
  obs::Tracer& tr = obs::tracer();
  const bool trace_on = tr.enabled();
  obs::LinkProbe* const probe = config.probe;
  const RecoveryConfig& recovery = config.recovery;

  // Dynamic fault replay: the clock owns the live fault set (seeded with
  // the static faults), the decorator caches fault-free path sets per
  // epoch, and the retry queue holds messages waiting out a backoff.
  const bool dynamic = recovery.enabled();
  std::optional<FaultClock> clock;
  std::optional<FaultTolerantRouter> live_router;
  std::multimap<i64, std::size_t> retry_queue;  // wake cycle -> message
  if (dynamic) {
    clock.emplace(torus, *recovery.schedule, faults);
    live_router.emplace(*recovery.reroute_router, clock->dead(),
                        clock->epoch_ref());
  }

  SimMetrics metrics;
  metrics.flits_per_message = config.flits_per_message;
  const std::size_t num_links =
      static_cast<std::size_t>(torus.num_directed_edges());
  metrics.link_forwards.assign(num_links, 0);

  const std::size_t n = policy.size();
  std::vector<i64> attempts(dynamic ? n : 0, 0);  ///< backoff waits so far
  // Injection order: by cycle, stable (FIFO among same-cycle injections).
  std::vector<std::size_t> order(n, 0);
  i64 total_work = 0;
  i64 last_inject = 0;
  {
    TP_PROF_PHASE("sim.prepare");
    total_work = policy.prepare();
    for (std::size_t i = 0; i < n; ++i) {
      TP_REQUIRE(policy.inject_cycle(i) >= 0, "negative injection cycle");
      order[i] = i;
      last_inject = std::max(last_inject, policy.inject_cycle(i));
    }
    const auto by_cycle = [&](std::size_t a, std::size_t b) {
      return policy.inject_cycle(a) < policy.inject_cycle(b);
    };
    if (!std::is_sorted(order.begin(), order.end(), by_cycle))
      std::stable_sort(order.begin(), order.end(), by_cycle);
  }
  const i64 flits = config.flits_per_message;
  if (max_cycles == 0) {
    max_cycles = total_work * flits + last_inject + 2;
    if (dynamic) max_cycles += recovery.budget_slack();
  }

  std::vector<LinkQueue> links(num_links);
  std::vector<std::size_t> next(n, kNoMsg);
  std::vector<EdgeId> active;
  const SimNet net{links, dynamic ? &*clock : nullptr,
                   dynamic ? &*live_router : nullptr};
  i64 cycle = 0;
  i64 in_flight = 0;
  // `now` is the cycle the message joins the queue: the current one, or
  // the next for a landing.
  auto enqueue = [&](EdgeId e, std::size_t m, i64 now) {
    LinkQueue& link = links[static_cast<std::size_t>(e)];
    next[m] = kNoMsg;
    if (link.last == kNoMsg)
      link.first = m;
    else
      next[link.last] = m;
    link.last = m;
    const i64 depth = ++link.size;
    metrics.max_queue_depth = std::max(metrics.max_queue_depth, depth);
    if (obs_on) reg.record(h_qdepth, depth);
    if (probe != nullptr) probe->on_queue_depth(e, now, depth);
    if (!link.active) {
      link.active = true;
      active.push_back(e);
    }
  };
  auto dequeue = [&](LinkQueue& link) {
    const std::size_t m = link.first;
    link.first = next[m];
    if (link.first == kNoMsg) link.last = kNoMsg;
    --link.size;
    return m;
  };
  auto schedule_retry = [&](std::size_t m) {
    const i64 wait = recovery.charge_retry(attempts[m]);
    if (wait < 0) {
      ++metrics.dropped;
      --in_flight;
      if (trace_on) tr.instant("sim.drop", "fault");
      return;
    }
    ++metrics.retries;
    if (trace_on) tr.instant("sim.retry", "fault");
    retry_queue.emplace(cycle + wait, m);
  };
  auto place = [&](std::size_t m, EdgeId e, i64 now) {
    if (e != kNoHop) {
      enqueue(e, m, now);
    } else if (dynamic) {
      schedule_retry(m);
    } else {
      ++metrics.unroutable;
      --in_flight;
    }
  };

  std::size_t next_inject = 0;
  double latency_sum = 0.0;
  // Messages in transit across a link, in arrival order (every traversal
  // takes `flits` cycles), read from `transit_read` on.
  struct Transit {
    i64 arrive = 0;
    std::size_t msg = 0;
  };
  std::vector<Transit> in_transit;
  std::size_t transit_read = 0;

  // Per-window counter-track samples for the trace timeline.
  constexpr i64 kCounterWindow = 64;
  i64 window_forwards = 0;

  // Phase spans: "sim.inject" while sources still have messages to issue,
  // "sim.drain" once the network is only emptying.
  if (trace_on) tr.begin("sim.inject", "sim");
  bool draining = false;

  TP_PROF_PHASE("sim.cycles");
  while (next_inject < n || in_flight > 0) {
    TP_REQUIRE(cycle <= max_cycles, "simulation exceeded cycle budget");
    const i64 injected_before = metrics.injected;
    const i64 delivered_before = metrics.delivered;
    // Apply this cycle's fault/repair events before any link transmits.
    if (dynamic && clock->advance_to(cycle) && trace_on) {
      tr.instant("sim.fault_event", "fault");
      tr.counter("sim.dead_wires", clock->dead_wires(), "sim");
    }
    // Wake messages whose backoff expired: the policy finds a new hop
    // against the live fault set, or the message backs off again.
    while (dynamic && !retry_queue.empty() &&
           retry_queue.begin()->first <= cycle) {
      const std::size_t m = retry_queue.begin()->second;
      retry_queue.erase(retry_queue.begin());
      const EdgeId e = policy.wake(m, net);
      if (e == kNoHop) {
        schedule_retry(m);
        continue;
      }
      ++metrics.rerouted;
      if (trace_on) tr.instant("sim.reroute", "fault");
      enqueue(e, m, cycle);
    }
    // Inject this cycle's messages.
    while (next_inject < n &&
           policy.inject_cycle(order[next_inject]) == cycle) {
      const std::size_t m = order[next_inject++];
      ++metrics.injected;
      if (policy.at_target(m)) {
        ++metrics.delivered;  // self-delivery (not generated normally)
        continue;
      }
      ++in_flight;
      place(m, policy.inject(m, net), cycle);
    }
    if (trace_on && !draining && next_inject == n) {
      tr.end("sim.inject");
      tr.begin("sim.drain", "sim");
      draining = true;
    }

    // Every free active link starts forwarding one message; the traversal
    // completes `flits` cycles later.
    for (std::size_t ai = 0; ai < active.size();) {
      const EdgeId e = active[ai];
      LinkQueue& link = links[static_cast<std::size_t>(e)];
      if (link.size == 0) {
        link.active = false;
        active[ai] = active.back();
        active.pop_back();
        continue;
      }
      if (dynamic && clock->is_dead(e)) {
        // The wire died with a backlog: the policy re-picks a hop for each
        // queued message or backs it off (an in-progress transmission
        // already left the wire).
        while (link.size > 0) {
          const std::size_t m = dequeue(link);
          place(m, policy.dead_link(m, net), cycle);
        }
        link.active = false;
        active[ai] = active.back();
        active.pop_back();
        continue;
      }
      if (link.busy_until > cycle) {
        // Still transmitting an earlier message: everything queued here
        // waits the cycle out.
        if (probe != nullptr) probe->on_stall(e, cycle, link.size);
        ++ai;
        continue;
      }
      const std::size_t m = dequeue(link);
      link.busy_until = cycle + flits;
      ++metrics.link_forwards[static_cast<std::size_t>(e)];
      if (probe != nullptr) probe->on_forward(e, cycle, flits);
      ++window_forwards;
      if (policy.cross(m, e)) {
        ++metrics.delivered;
        --in_flight;
        const i64 latency = cycle + flits - policy.inject_cycle(m);
        latency_sum += static_cast<double>(latency);
        metrics.latency.record(latency);
        if (obs_on) reg.record(h_latency, latency);
        metrics.cycles = std::max(metrics.cycles, cycle + flits);
      } else {
        in_transit.push_back(Transit{cycle + flits, m});
      }
      ++ai;
    }
    if (obs_on) {
      reg.record(h_inj_cycle, metrics.injected - injected_before);
      reg.record(h_del_cycle, metrics.delivered - delivered_before);
    }
    if (trace_on && cycle % kCounterWindow == kCounterWindow - 1) {
      tr.counter("sim.forwards_per_window", window_forwards, "sim");
      tr.counter("sim.active_links", static_cast<i64>(active.size()), "sim");
      if (dynamic)
        tr.counter("sim.retries_pending",
                   static_cast<i64>(retry_queue.size()), "sim");
      window_forwards = 0;
    }
    // Land messages whose traversal completes next cycle; each joins the
    // queue of the hop its policy picks.
    while (transit_read < in_transit.size() &&
           in_transit[transit_read].arrive <= cycle + 1) {
      const std::size_t m = in_transit[transit_read++].msg;
      place(m, policy.land(m, net), cycle + 1);
    }
    if (transit_read == in_transit.size()) {
      in_transit.clear();
      transit_read = 0;
    } else if (2 * transit_read > in_transit.size()) {
      in_transit.erase(in_transit.begin(),
                       in_transit.begin() +
                           static_cast<std::ptrdiff_t>(transit_read));
      transit_read = 0;
    }
    ++cycle;
    // Nothing moving and nothing in transit: jump to the next injection
    // or retry wake instead of spinning through backoff waits.
    if (dynamic && active.empty() && in_transit.empty()) {
      i64 next_wake = std::numeric_limits<i64>::max();
      if (next_inject < n)
        next_wake = policy.inject_cycle(order[next_inject]);
      if (!retry_queue.empty())
        next_wake = std::min(next_wake, retry_queue.begin()->first);
      if (next_wake != std::numeric_limits<i64>::max() && next_wake > cycle)
        cycle = next_wake;
    }
  }
  if (trace_on) {
    if (window_forwards > 0)
      tr.counter("sim.forwards_per_window", window_forwards, "sim");
    tr.counter("sim.active_links", 0, "sim");
    tr.end(draining ? "sim.drain" : "sim.inject");
  }

  metrics.max_link_forwards = metrics.link_forwards.empty()
                                  ? 0
                                  : *std::max_element(
                                        metrics.link_forwards.begin(),
                                        metrics.link_forwards.end());
  metrics.mean_latency = metrics.delivered > 0
                             ? latency_sum / static_cast<double>(metrics.delivered)
                             : 0.0;
  if (dynamic) {
    metrics.fail_events = clock->fails_applied();
    metrics.repair_events = clock->repairs_applied();
  }
  if (obs_on) {
    reg.add(reg.counter("sim.cycles"), metrics.cycles);
    reg.add(reg.counter("sim.injected"), metrics.injected);
    reg.add(reg.counter("sim.delivered"), metrics.delivered);
    reg.add(reg.counter("sim.unroutable"), metrics.unroutable);
    reg.set_max(reg.gauge("sim.max_queue_depth"), metrics.max_queue_depth);
    reg.set_max(reg.gauge("sim.max_link_forwards"),
                metrics.max_link_forwards);
    if (dynamic) {
      reg.add(reg.counter("sim.dropped"), metrics.dropped);
      reg.add(reg.counter("sim.retries"), metrics.retries);
      reg.add(reg.counter("sim.rerouted"), metrics.rerouted);
      reg.add(reg.counter("sim.fail_events"), metrics.fail_events);
      reg.add(reg.counter("sim.repair_events"), metrics.repair_events);
    }
  }
  return metrics;
}

}  // namespace tp::detail
