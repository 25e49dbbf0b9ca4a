#include "src/simulate/network_sim.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <optional>

#include "src/obs/obs.h"
#include "src/routing/fault_router.h"
#include "src/util/error.h"
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
  if (config_.recovery.enabled()) {
    TP_REQUIRE(config_.recovery.reroute_router != nullptr,
               "a dynamic fault schedule needs recovery.reroute_router");
    TP_REQUIRE(config_.recovery.max_retries >= 0,
               "max_retries must be non-negative");
    TP_REQUIRE(config_.recovery.backoff_base >= 1,
               "backoff_base must be >= 1");
  }
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

}  // namespace

SimMetrics NetworkSim::run(const std::vector<SimMessage>& messages,
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
  obs::LinkProbe* const probe = config_.probe;
  if (probe != nullptr)
    TP_REQUIRE(probe->num_links() == torus_.num_directed_edges(),
               "link probe sized for a different torus");

  // Dynamic fault replay: the clock owns the live fault set (seeded with
  // the static faults), the decorator caches fault-free path sets per
  // epoch, and the retry queue holds messages waiting out a backoff.
  const bool dynamic = config_.recovery.enabled();
  std::optional<FaultClock> clock;
  std::optional<FaultTolerantRouter> live_router;
  std::optional<Xoshiro256SS> reroute_rng;
  std::multimap<i64, std::size_t> retry_queue;  // wake cycle -> message
  if (dynamic) {
    clock.emplace(torus_, *config_.recovery.schedule,
                  has_faults_ ? &faults_ : nullptr);
    live_router.emplace(*config_.recovery.reroute_router, clock->dead(),
                        clock->epoch_ref());
    reroute_rng.emplace(config_.recovery.seed);
  }

  SimMetrics metrics;
  metrics.flits_per_message = config_.flits_per_message;
  const std::size_t num_links =
      static_cast<std::size_t>(torus_.num_directed_edges());
  metrics.link_forwards.assign(num_links, 0);

  // Per-message state, indexed like `messages`.  A message's remaining
  // route is arena[pos, end): prepare copies every path into the arena,
  // and a reroute appends a fresh range and points the message at it.
  const std::size_t n = messages.size();
  std::vector<EdgeId> arena;
  std::vector<std::size_t> pos(n, 0);
  std::vector<std::size_t> end(n, 0);
  std::vector<i64> attempts(dynamic ? n : 0, 0);  ///< backoff waits so far
  // Injection order: by cycle, stable (FIFO among same-cycle injections).
  std::vector<std::size_t> order(n, 0);
  std::vector<NodeId> tail;
  std::vector<NodeId> head;
  i64 last_inject = 0;
  {
    TP_PROF_PHASE("sim.prepare");
    // Every path is checked against the link tables, exactly as
    // Path::verify_connected would: ids in range, consecutive links
    // meeting head to tail, the last one entering the target.
    link_endpoints(torus_, tail, head);
    std::size_t hops = 0;
    for (const SimMessage& m : messages) hops += m.path.edges.size();
    arena.reserve(hops);
    for (std::size_t i = 0; i < n; ++i) {
      const SimMessage& m = messages[i];
      TP_REQUIRE(m.inject_cycle >= 0, "negative injection cycle");
      pos[i] = arena.size();
      NodeId at = m.path.source;
      for (const EdgeId e : m.path.edges) {
        TP_REQUIRE(e >= 0 && static_cast<std::size_t>(e) < num_links,
                   "edge id out of range");
        TP_REQUIRE(tail[static_cast<std::size_t>(e)] == at,
                   "path edges are not contiguous");
        at = head[static_cast<std::size_t>(e)];
        arena.push_back(e);
      }
      TP_REQUIRE(at == m.path.target, "path does not end at its target");
      end[i] = arena.size();
      order[i] = i;
      last_inject = std::max(last_inject, m.inject_cycle);
    }
    const auto by_cycle = [&](std::size_t a, std::size_t b) {
      return messages[a].inject_cycle < messages[b].inject_cycle;
    };
    if (!std::is_sorted(order.begin(), order.end(), by_cycle))
      std::stable_sort(order.begin(), order.end(), by_cycle);
  }
  const i64 total_work = static_cast<i64>(arena.size());
  const i64 flits = config_.flits_per_message;
  if (max_cycles == 0) {
    max_cycles = total_work * flits + last_inject + 2;
    if (dynamic) {
      // Livelock guard only: generous slack for backoff waits (retries of
      // distinct messages overlap, so per-message slack suffices) plus the
      // schedule's tail.
      const i64 cap = config_.recovery.backoff_base
                      << std::min<i64>(config_.recovery.max_retries, 20);
      max_cycles += config_.recovery.schedule->last_cycle() +
                    2 * (config_.recovery.max_retries + 1) * cap + 2;
    }
  }

  // Each link's FIFO is an intrusive list threaded through next[]: a
  // message sits in at most one queue at a time.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  struct LinkState {
    std::size_t first = kNone;  ///< queue front (message index)
    std::size_t last = kNone;   ///< queue back
    i64 size = 0;
    i64 busy_until = 0;  ///< cycle the current transmission completes
    bool active = false;  ///< listed in `active`
  };
  std::vector<LinkState> links(num_links);
  std::vector<std::size_t> next(n, kNone);
  std::vector<EdgeId> active;
  i64 cycle = 0;
  i64 in_flight = 0;
  auto enqueue = [&](EdgeId e, std::size_t m) {
    LinkState& link = links[static_cast<std::size_t>(e)];
    next[m] = kNone;
    if (link.last == kNone)
      link.first = m;
    else
      next[link.last] = m;
    link.last = m;
    const i64 depth = ++link.size;
    metrics.max_queue_depth = std::max(metrics.max_queue_depth, depth);
    if (obs_on) reg.record(h_qdepth, depth);
    if (probe != nullptr) probe->on_queue_depth(e, cycle, depth);
    if (!link.active) {
      link.active = true;
      active.push_back(e);
    }
  };
  auto dequeue = [&](LinkState& link) {
    const std::size_t m = link.first;
    link.first = next[m];
    if (link.first == kNone) link.last = kNone;
    --link.size;
    return m;
  };

  // A message whose next hop is dead waits out an exponential backoff,
  // then (re)samples a fault-free path; the retry budget bounds the loop.
  auto schedule_retry = [&](std::size_t m) {
    if (attempts[m] >= config_.recovery.max_retries) {
      ++metrics.dropped;
      --in_flight;
      if (trace_on) tr.instant("sim.drop", "fault");
      return;
    }
    const i64 wait = config_.recovery.backoff_base
                     << std::min<i64>(attempts[m], 20);
    ++attempts[m];
    ++metrics.retries;
    if (trace_on) tr.instant("sim.retry", "fault");
    retry_queue.emplace(cycle + wait, m);
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
    // Land messages whose link traversal completes now; each joins the
    // queue of its next hop.
    while (transit_read < in_transit.size() &&
           in_transit[transit_read].arrive <= cycle) {
      const std::size_t m = in_transit[transit_read++].msg;
      enqueue(arena[pos[m]], m);
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
    // Wake messages whose backoff expired: reroute from where they sit,
    // against the live fault set, or back off again.
    while (dynamic && !retry_queue.empty() &&
           retry_queue.begin()->first <= cycle) {
      const std::size_t m = retry_queue.begin()->second;
      retry_queue.erase(retry_queue.begin());
      // A backed-off message waits in front of its (dead) next hop.
      const NodeId at = tail[static_cast<std::size_t>(arena[pos[m]])];
      const NodeId dst = messages[m].path.target;
      NodeId from = at;
      if (live_router->num_paths(torus_, at, dst) == 0) {
        // Cornered: no fault-free path from where the message sits, but
        // the pair may still be connected end-to-end — fall back to a
        // retransmission from the original source.  A pair is dropped
        // only once its source-to-target path set is (still) dead when
        // the budget runs out.
        from = messages[m].path.source;
        if (from == at || live_router->num_paths(torus_, from, dst) == 0) {
          schedule_retry(m);
          continue;
        }
      }
      const Path fresh =
          live_router->sample_path(torus_, from, dst, *reroute_rng);
      pos[m] = arena.size();
      arena.insert(arena.end(), fresh.edges.begin(), fresh.edges.end());
      end[m] = arena.size();
      ++metrics.rerouted;
      if (trace_on) tr.instant("sim.reroute", "fault");
      enqueue(arena[pos[m]], m);
    }
    // Inject this cycle's messages.
    while (next_inject < n &&
           messages[order[next_inject]].inject_cycle == cycle) {
      const std::size_t m = order[next_inject++];
      ++metrics.injected;
      if (pos[m] == end[m]) {
        ++metrics.delivered;  // self-delivery (not generated normally)
        continue;
      }
      // With dynamic recovery the static pre-check is skipped: a blocked
      // hop is discovered at forward time and rerouted, not dropped.
      if (!dynamic && has_faults_ &&
          std::any_of(arena.begin() + static_cast<std::ptrdiff_t>(pos[m]),
                      arena.begin() + static_cast<std::ptrdiff_t>(end[m]),
                      [&](EdgeId e) { return faults_.contains(e); })) {
        ++metrics.unroutable;
        continue;
      }
      enqueue(arena[pos[m]], m);
      ++in_flight;
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
      LinkState& link = links[static_cast<std::size_t>(e)];
      if (link.size == 0) {
        link.active = false;
        active[ai] = active.back();
        active.pop_back();
        continue;
      }
      if (dynamic && clock->is_dead(e)) {
        // The wire died with a backlog: every queued message backs off and
        // reroutes (an in-progress transmission already left the wire).
        while (link.size > 0) schedule_retry(dequeue(link));
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
      if (++pos[m] == end[m]) {
        ++metrics.delivered;
        --in_flight;
        const i64 latency = cycle + flits - messages[m].inject_cycle;
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
    ++cycle;
    // Nothing moving and nothing in transit: jump to the next injection
    // or retry wake instead of spinning through backoff waits.
    if (dynamic && active.empty() && transit_read == in_transit.size()) {
      i64 next_wake = std::numeric_limits<i64>::max();
      if (next_inject < n)
        next_wake = messages[order[next_inject]].inject_cycle;
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

}  // namespace tp
