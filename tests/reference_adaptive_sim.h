// Test-only reference for AdaptiveNetworkSim::run: the stand-alone
// deque-per-link formulation of hop-by-hop minimal-adaptive forwarding
// (one std::deque of message states per link, arrivals routed at the end
// of the cycle they cross a link in, against that cycle's fault state).
// The production simulator runs the same policy on NetworkSim's flat
// store-and-forward core; the differential tests in test_adaptive_sim.cpp
// require both to produce identical SimMetrics and identical per-link
// probe totals.  Metrics-registry and trace calls are left out: they do
// not feed the results.

#pragma once

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "src/obs/linkprobe.h"
#include "src/routing/fault_router.h"
#include "src/simulate/adaptive_sim.h"
#include "src/simulate/fault_schedule.h"
#include "src/util/error.h"
#include "src/util/prng.h"
#include "src/util/small_vec.h"

namespace tp::testing_ref {

inline SimMetrics reference_adaptive_run(const Torus& torus,
                                         AdaptivePolicy policy,
                                         const EdgeSet* faults,
                                         obs::LinkProbe* probe,
                                         const RecoveryConfig& recovery,
                                         const std::vector<Demand>& demands,
                                         u64 seed = 1, i64 max_cycles = 0) {
  struct MsgState {
    NodeId node = 0;
    NodeId src = 0;
    NodeId dst = 0;
    i64 inject_cycle = 0;
    i64 attempts = 0;
  };
  const bool has_faults = faults != nullptr;

  SimMetrics metrics;
  metrics.link_forwards.assign(
      static_cast<std::size_t>(torus.num_directed_edges()), 0);

  const bool dynamic = recovery.enabled();
  std::optional<FaultClock> clock;
  std::optional<FaultTolerantRouter> oracle;
  std::multimap<i64, MsgState> retry_queue;
  if (dynamic) {
    clock.emplace(torus, *recovery.schedule, faults);
    oracle.emplace(*recovery.reroute_router, clock->dead(),
                   clock->epoch_ref());
  }

  std::vector<const Demand*> by_inject;
  i64 total_work = 0;
  i64 last_inject = 0;
  for (const Demand& d : demands) {
    TP_REQUIRE(torus.valid_node(d.src) && torus.valid_node(d.dst),
               "demand node out of range");
    TP_REQUIRE(d.inject_cycle >= 0, "negative injection cycle");
    by_inject.push_back(&d);
    total_work += torus.lee_distance(d.src, d.dst);
    last_inject = std::max(last_inject, d.inject_cycle);
  }
  std::stable_sort(by_inject.begin(), by_inject.end(),
                   [](const Demand* a, const Demand* b) {
                     return a->inject_cycle < b->inject_cycle;
                   });
  if (max_cycles == 0) {
    max_cycles = total_work + last_inject + 2;
    if (dynamic) {
      const i64 cap = recovery.backoff_base
                      << std::min<i64>(recovery.max_retries, 20);
      max_cycles += recovery.schedule->last_cycle() +
                    2 * (recovery.max_retries + 1) * cap + 2;
    }
  }

  const auto num_links = static_cast<std::size_t>(torus.num_directed_edges());
  std::vector<std::deque<MsgState>> queue(num_links);
  std::vector<EdgeId> active;
  std::vector<bool> is_active(num_links, false);
  Xoshiro256SS rng(seed);

  SmallVec<i64, 2 * kMaxDims> candidates;
  auto link_alive = [&](EdgeId e) {
    if (has_faults && faults->contains(e)) return false;
    if (dynamic && clock->is_dead(e)) return false;
    return true;
  };
  auto minimal_links = [&](NodeId node, NodeId dst) {
    candidates.clear();
    for (i32 dim = 0; dim < torus.dims(); ++dim) {
      const i32 a = torus.coord_of(node, dim);
      const i32 b = torus.coord_of(dst, dim);
      const Way way = torus.shortest_way(dim, a, b);
      if (way == Way::None) continue;
      if (way != Way::Neg) {
        const EdgeId e = torus.edge_id(node, dim, Dir::Pos);
        if (link_alive(e)) candidates.push_back(e);
      }
      if (way != Way::Pos) {
        const EdgeId e = torus.edge_id(node, dim, Dir::Neg);
        if (link_alive(e)) candidates.push_back(e);
      }
    }
  };

  i64 cycle = 0;
  i64 in_flight = 0;
  auto try_route = [&](MsgState s) -> bool {
    minimal_links(s.node, s.dst);
    if (dynamic && clock->dead_wires() > 0 && !candidates.empty()) {
      std::size_t keep = 0;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const EdgeId e = static_cast<EdgeId>(candidates[i]);
        const NodeId head = torus.link(e).head;
        if (head == s.dst || oracle->num_paths(torus, head, s.dst) > 0)
          candidates[keep++] = candidates[i];
      }
      candidates.resize(keep);
    }
    if (candidates.empty()) return false;
    EdgeId pick = static_cast<EdgeId>(candidates[0]);
    if (policy == AdaptivePolicy::RandomMinimal) {
      pick = static_cast<EdgeId>(
          candidates[static_cast<std::size_t>(rng.below(candidates.size()))]);
    } else {
      for (std::size_t i = 1; i < candidates.size(); ++i) {
        const EdgeId e = static_cast<EdgeId>(candidates[i]);
        if (queue[static_cast<std::size_t>(e)].size() <
            queue[static_cast<std::size_t>(pick)].size())
          pick = e;
      }
    }
    queue[static_cast<std::size_t>(pick)].push_back(s);
    const i64 depth =
        static_cast<i64>(queue[static_cast<std::size_t>(pick)].size());
    metrics.max_queue_depth = std::max(metrics.max_queue_depth, depth);
    if (probe != nullptr) probe->on_queue_depth(pick, cycle, depth);
    if (!is_active[static_cast<std::size_t>(pick)]) {
      is_active[static_cast<std::size_t>(pick)] = true;
      active.push_back(pick);
    }
    return true;
  };

  auto handle_blocked = [&](MsgState s) {
    if (!dynamic) {
      ++metrics.unroutable;
      --in_flight;
      return;
    }
    if (s.attempts >= recovery.max_retries) {
      ++metrics.dropped;
      --in_flight;
      return;
    }
    const i64 wait = recovery.backoff_base << std::min<i64>(s.attempts, 20);
    ++s.attempts;
    ++metrics.retries;
    retry_queue.emplace(cycle + wait, s);
  };

  std::size_t next_inject = 0;
  double latency_sum = 0.0;
  std::vector<MsgState> arrivals;

  while (next_inject < by_inject.size() || in_flight > 0) {
    TP_REQUIRE(cycle <= max_cycles, "simulation exceeded cycle budget");
    if (dynamic) clock->advance_to(cycle);
    while (dynamic && !retry_queue.empty() &&
           retry_queue.begin()->first <= cycle) {
      MsgState s = retry_queue.begin()->second;
      retry_queue.erase(retry_queue.begin());
      if (try_route(s)) {
        ++metrics.rerouted;
        continue;
      }
      if (s.node != s.src && oracle->num_paths(torus, s.src, s.dst) > 0) {
        s.node = s.src;
        if (try_route(s)) {
          ++metrics.rerouted;
          continue;
        }
      }
      handle_blocked(s);
    }
    while (next_inject < by_inject.size() &&
           by_inject[next_inject]->inject_cycle == cycle) {
      const Demand* d = by_inject[next_inject++];
      ++metrics.injected;
      if (d->src == d->dst) {
        ++metrics.delivered;
        continue;
      }
      ++in_flight;
      MsgState s{d->src, d->src, d->dst, d->inject_cycle, 0};
      if (!try_route(s)) handle_blocked(s);
    }

    arrivals.clear();
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
          MsgState s = q.front();
          q.pop_front();
          if (!try_route(s)) handle_blocked(s);
        }
        is_active[static_cast<std::size_t>(e)] = false;
        active[ai] = active.back();
        active.pop_back();
        continue;
      }
      MsgState s = q.front();
      q.pop_front();
      ++metrics.link_forwards[static_cast<std::size_t>(e)];
      if (probe != nullptr) {
        probe->on_forward(e, cycle);
        if (!q.empty()) probe->on_stall(e, cycle, static_cast<i64>(q.size()));
      }
      s.node = torus.link(e).head;
      if (s.node == s.dst) {
        ++metrics.delivered;
        --in_flight;
        latency_sum += static_cast<double>(cycle + 1 - s.inject_cycle);
        metrics.cycles = std::max(metrics.cycles, cycle + 1);
      } else {
        arrivals.push_back(s);
      }
      ++ai;
    }
    for (const MsgState& s : arrivals)
      if (!try_route(s)) handle_blocked(s);
    ++cycle;
    if (dynamic && active.empty()) {
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
