// Test-only reference for NetworkSim::run: the straightforward
// deque-per-link formulation of the store-and-forward model (one
// std::deque of message states per link, a deque of in-transit messages,
// a Path pointer per message, paths checked by Path::verify_connected).
// The production simulator keeps the same state in flat index-linked
// arrays; the differential tests in test_simulate.cpp and
// test_resilience.cpp require both to produce identical SimMetrics and
// identical link-probe counters.  Metrics-registry and trace calls are
// left out: they do not feed the results.

#pragma once

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "src/obs/linkprobe.h"
#include "src/routing/fault_router.h"
#include "src/simulate/fault_schedule.h"
#include "src/simulate/network_sim.h"
#include "src/util/error.h"

namespace tp::testing_ref {

inline SimMetrics reference_run(const Torus& torus, const EdgeSet* faults,
                                const SimConfig& config,
                                const std::vector<SimMessage>& messages,
                                i64 max_cycles = 0) {
  struct MsgState {
    const SimMessage* msg = nullptr;
    const Path* path = nullptr;
    std::size_t hop = 0;
    i64 attempts = 0;
  };
  const bool has_faults = faults != nullptr;
  obs::LinkProbe* const probe = config.probe;
  const bool dynamic = config.recovery.enabled();
  std::optional<FaultClock> clock;
  std::optional<FaultTolerantRouter> live_router;
  std::optional<Xoshiro256SS> reroute_rng;
  std::deque<Path> reroutes;
  std::multimap<i64, MsgState> retry_queue;
  if (dynamic) {
    clock.emplace(torus, *config.recovery.schedule, faults);
    live_router.emplace(*config.recovery.reroute_router, clock->dead(),
                        clock->epoch_ref());
    reroute_rng.emplace(config.recovery.seed);
  }

  SimMetrics metrics;
  metrics.flits_per_message = config.flits_per_message;
  metrics.link_forwards.assign(
      static_cast<std::size_t>(torus.num_directed_edges()), 0);

  std::vector<const SimMessage*> by_inject;
  i64 total_work = 0;
  i64 last_inject = 0;
  for (const SimMessage& m : messages) {
    TP_REQUIRE(m.inject_cycle >= 0, "negative injection cycle");
    m.path.verify_connected(torus);
    by_inject.push_back(&m);
    total_work += m.path.length();
    last_inject = std::max(last_inject, m.inject_cycle);
  }
  std::stable_sort(by_inject.begin(), by_inject.end(),
                   [](const SimMessage* a, const SimMessage* b) {
                     return a->inject_cycle < b->inject_cycle;
                   });
  const i64 flits = config.flits_per_message;
  if (max_cycles == 0) {
    max_cycles = total_work * flits + last_inject + 2;
    if (dynamic) {
      const i64 cap = config.recovery.backoff_base
                      << std::min<i64>(config.recovery.max_retries, 20);
      max_cycles += config.recovery.schedule->last_cycle() +
                    2 * (config.recovery.max_retries + 1) * cap + 2;
    }
  }

  const auto links = static_cast<std::size_t>(torus.num_directed_edges());
  std::vector<std::deque<MsgState>> queue(links);
  std::vector<EdgeId> active;
  std::vector<bool> is_active(links, false);
  i64 cycle = 0;
  i64 in_flight = 0;
  auto enqueue = [&](EdgeId e, MsgState s) {
    auto& q = queue[static_cast<std::size_t>(e)];
    q.push_back(s);
    const i64 depth = static_cast<i64>(q.size());
    metrics.max_queue_depth = std::max(metrics.max_queue_depth, depth);
    if (probe != nullptr) probe->on_queue_depth(e, cycle, depth);
    if (!is_active[static_cast<std::size_t>(e)]) {
      is_active[static_cast<std::size_t>(e)] = true;
      active.push_back(e);
    }
  };
  auto schedule_retry = [&](MsgState s) {
    if (s.attempts >= config.recovery.max_retries) {
      ++metrics.dropped;
      --in_flight;
      return;
    }
    const i64 wait = config.recovery.backoff_base
                     << std::min<i64>(s.attempts, 20);
    ++s.attempts;
    ++metrics.retries;
    retry_queue.emplace(cycle + wait, s);
  };

  std::vector<i64> busy_until(links, 0);
  std::size_t next_inject = 0;
  double latency_sum = 0.0;
  std::deque<std::tuple<i64, EdgeId, MsgState>> in_transit;

  while (next_inject < by_inject.size() || in_flight > 0) {
    TP_REQUIRE(cycle <= max_cycles, "simulation exceeded cycle budget");
    if (dynamic) clock->advance_to(cycle);
    while (!in_transit.empty() && std::get<0>(in_transit.front()) <= cycle) {
      const EdgeId e = std::get<1>(in_transit.front());
      const MsgState s = std::get<2>(in_transit.front());
      in_transit.pop_front();
      enqueue(e, s);
    }
    while (dynamic && !retry_queue.empty() &&
           retry_queue.begin()->first <= cycle) {
      MsgState s = retry_queue.begin()->second;
      retry_queue.erase(retry_queue.begin());
      const NodeId at = s.hop == 0
                            ? s.path->source
                            : torus.link(s.path->edges[s.hop - 1]).head;
      const NodeId dst = s.path->target;
      NodeId from = at;
      if (live_router->num_paths(torus, at, dst) == 0) {
        from = s.msg->path.source;
        if (from == at || live_router->num_paths(torus, from, dst) == 0) {
          schedule_retry(s);
          continue;
        }
      }
      reroutes.push_back(
          live_router->sample_path(torus, from, dst, *reroute_rng));
      s.path = &reroutes.back();
      s.hop = 0;
      ++metrics.rerouted;
      enqueue(s.path->edges.front(), s);
    }
    while (next_inject < by_inject.size() &&
           by_inject[next_inject]->inject_cycle == cycle) {
      const SimMessage* m = by_inject[next_inject++];
      ++metrics.injected;
      if (m->path.edges.empty()) {
        ++metrics.delivered;
        continue;
      }
      if (!dynamic && has_faults) {
        bool routable = true;
        for (EdgeId e : m->path.edges)
          if (faults->contains(e)) {
            routable = false;
            break;
          }
        if (!routable) {
          ++metrics.unroutable;
          continue;
        }
      }
      enqueue(m->path.edges.front(), MsgState{m, &m->path, 0, 0});
      ++in_flight;
    }
    for (std::size_t ai = 0; ai < active.size();) {
      const EdgeId e = active[ai];
      auto& q = queue[static_cast<std::size_t>(e)];
      if (q.empty()) {
        is_active[static_cast<std::size_t>(e)] = false;
        active[ai] = active.back();
        active.pop_back();
        continue;
      }
      if (dynamic && clock->is_dead(e)) {
        while (!q.empty()) {
          schedule_retry(q.front());
          q.pop_front();
        }
        is_active[static_cast<std::size_t>(e)] = false;
        active[ai] = active.back();
        active.pop_back();
        continue;
      }
      if (busy_until[static_cast<std::size_t>(e)] > cycle) {
        if (probe != nullptr)
          probe->on_stall(e, cycle, static_cast<i64>(q.size()));
        ++ai;
        continue;
      }
      MsgState s = q.front();
      q.pop_front();
      busy_until[static_cast<std::size_t>(e)] = cycle + flits;
      ++metrics.link_forwards[static_cast<std::size_t>(e)];
      if (probe != nullptr) probe->on_forward(e, cycle, flits);
      ++s.hop;
      if (s.hop == s.path->edges.size()) {
        ++metrics.delivered;
        --in_flight;
        const i64 latency = cycle + flits - s.msg->inject_cycle;
        latency_sum += static_cast<double>(latency);
        metrics.latency.record(latency);
        metrics.cycles = std::max(metrics.cycles, cycle + flits);
      } else {
        in_transit.emplace_back(cycle + flits, s.path->edges[s.hop], s);
      }
      ++ai;
    }
    ++cycle;
    if (dynamic && active.empty() && in_transit.empty()) {
      i64 next = std::numeric_limits<i64>::max();
      if (next_inject < by_inject.size())
        next = by_inject[next_inject]->inject_cycle;
      if (!retry_queue.empty())
        next = std::min(next, retry_queue.begin()->first);
      if (next != std::numeric_limits<i64>::max() && next > cycle)
        cycle = next;
    }
  }
  metrics.max_link_forwards =
      metrics.link_forwards.empty()
          ? 0
          : *std::max_element(metrics.link_forwards.begin(),
                              metrics.link_forwards.end());
  metrics.mean_latency =
      metrics.delivered > 0
          ? latency_sum / static_cast<double>(metrics.delivered)
          : 0.0;
  if (dynamic) {
    metrics.fail_events = clock->fails_applied();
    metrics.repair_events = clock->repairs_applied();
  }
  return metrics;
}

}  // namespace tp::testing_ref
