#include "src/core/optimize.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <optional>

#include "src/load/complete_exchange.h"
#include "src/obs/obs.h"
#include "src/util/error.h"
#include "src/util/prng.h"

namespace tp {

namespace {

/// Scores one search's candidates, each the current set with `out` removed
/// and `in` added.  ODR and UDR score through LoadDelta from the pairs the
/// change touches.  Adaptive loads are order-dependent double sums: a delta
/// would move their last bits and with them the accept decisions, so an
/// adaptive candidate is measured whole.
class Scorer {
 public:
  Scorer(const Torus& torus, RouterKind kind, std::vector<NodeId> start)
      : torus_(torus), kind_(kind), nodes_(std::move(start)) {
    if (kind == RouterKind::Odr) ring_.emplace(LoadDelta::odr(torus, nodes_));
    if (kind == RouterKind::Udr) ring_.emplace(LoadDelta::udr(torus, nodes_));
  }

  /// E_max of the current set.
  double emax() const { return ring_ ? ring_->emax() : measure(nodes_); }

  double propose(const std::vector<NodeId>& out,
                 const std::vector<NodeId>& in) {
    if (ring_) return ring_->propose(out, in);
    next_.clear();
    for (const NodeId q : nodes_)
      if (std::find(out.begin(), out.end(), q) == out.end())
        next_.push_back(q);
    next_.insert(next_.end(), in.begin(), in.end());
    return measure(next_);
  }

  void commit() {
    if (ring_)
      ring_->commit();
    else
      nodes_.swap(next_);
  }

  /// Records the pairs the delta evaluator went through, once per search
  /// (every adaptive measure_loads call records its own).
  void record_counters() const {
    if (!ring_) return;
    TP_OBS_COUNT("load.pairs_evaluated", ring_->pairs_evaluated());
    if (ring_->tie_breaks() > 0)
      TP_OBS_COUNT("router.tie_breaks", ring_->tie_breaks());
  }

 private:
  double measure(const std::vector<NodeId>& nodes) const {
    const Placement p(torus_, nodes, "candidate");
    return measure_loads(torus_, p, kind_).max_load();
  }

  const Torus& torus_;
  RouterKind kind_;
  std::optional<LoadDelta> ring_;
  std::vector<NodeId> nodes_, next_;  // Adaptive only
};

}  // namespace

SearchResult exhaustive_best_placement(const Torus& torus, i64 size,
                                       RouterKind kind,
                                       i64 max_candidates) {
  TP_REQUIRE(size >= 2 && size <= torus.num_nodes(),
             "placement size out of range");
  TP_REQUIRE(binomial_at_most(torus.num_nodes(), size, max_candidates),
             "too many candidate placements to enumerate");

  const i64 n = torus.num_nodes();
  std::vector<NodeId> pick(static_cast<std::size_t>(size));
  std::iota(pick.begin(), pick.end(), NodeId{0});

  Scorer scorer(torus, kind, pick);
  std::vector<NodeId> best_nodes = pick;
  double best = scorer.emax();
  i64 evaluated = 1;

  // Lexicographic combination enumeration.  A step rewrites pick[i..m):
  // the nodes it drops leave the set and the ones it takes join.
  const auto m = static_cast<std::size_t>(size);
  std::vector<NodeId> tail, out, in;
  for (;;) {
    // Advance to the next combination.
    std::size_t i = m;
    while (i > 0) {
      --i;
      if (pick[i] < n - static_cast<i64>(m - i)) break;
      if (i == 0) {
        scorer.record_counters();
        SearchResult result{
            Placement(torus, best_nodes, "exhaustive_best"), best,
            evaluated};
        return result;
      }
    }
    tail.assign(pick.begin() + static_cast<std::ptrdiff_t>(i), pick.end());
    ++pick[i];
    for (std::size_t j = i + 1; j < m; ++j) pick[j] = pick[j - 1] + 1;
    out.clear();
    in.clear();
    const auto next = pick.begin() + static_cast<std::ptrdiff_t>(i);
    std::set_difference(tail.begin(), tail.end(), next, pick.end(),
                        std::back_inserter(out));
    std::set_difference(next, pick.end(), tail.begin(), tail.end(),
                        std::back_inserter(in));

    const double emax = scorer.propose(out, in);
    scorer.commit();
    ++evaluated;
    if (emax < best) {
      best = emax;
      best_nodes = pick;
    }
  }
}

SearchResult anneal_placement(const Torus& torus, i64 size, RouterKind kind,
                              i64 iterations, u64 seed) {
  TP_REQUIRE(size >= 2 && size <= torus.num_nodes(),
             "placement size out of range");
  TP_REQUIRE(iterations >= 1, "need at least one iteration");
  Xoshiro256SS rng(seed);

  // Random initial subset via partial shuffle.
  std::vector<NodeId> all(static_cast<std::size_t>(torus.num_nodes()));
  std::iota(all.begin(), all.end(), NodeId{0});
  for (i64 i = 0; i < size; ++i) {
    const auto j = static_cast<std::size_t>(i) +
                   static_cast<std::size_t>(rng.below(
                       static_cast<u64>(torus.num_nodes() - i)));
    std::swap(all[static_cast<std::size_t>(i)], all[j]);
  }
  // all[0..size) = current placement, all[size..) = empty nodes.
  std::vector<NodeId> best_nodes(all.begin(), all.begin() + size);
  Scorer scorer(torus, kind, best_nodes);
  double current = scorer.emax();
  double best = current;
  i64 evaluated = 1;
  // The full torus is the only placement of its size: there is no move.
  const i64 moves = size < torus.num_nodes() ? iterations : 0;

  // Geometric cooling from T0 to T1 across the iteration budget.
  const double t0 = std::max(1.0, current * 0.25);
  const double t1 = 0.01;
  const double decay =
      std::pow(t1 / t0, 1.0 / static_cast<double>(iterations));
  double temperature = t0;

  std::vector<NodeId> out(1), in(1);
  for (i64 it = 0; it < moves; ++it) {
    const auto inside = static_cast<std::size_t>(rng.below(
        static_cast<u64>(size)));
    const auto outside =
        static_cast<std::size_t>(size) +
        static_cast<std::size_t>(rng.below(
            static_cast<u64>(torus.num_nodes() - size)));
    out[0] = all[inside];
    in[0] = all[outside];
    const double candidate = scorer.propose(out, in);
    ++evaluated;
    const double delta = candidate - current;
    if (delta <= 0.0 ||
        rng.uniform() < std::exp(-delta / temperature)) {
      scorer.commit();
      std::swap(all[inside], all[outside]);
      current = candidate;
      if (current < best) {
        best = current;
        best_nodes.assign(all.begin(), all.begin() + size);
      }
    }
    temperature *= decay;
  }
  scorer.record_counters();
  SearchResult result{Placement(torus, std::move(best_nodes), "annealed"),
                      best, evaluated};
  return result;
}

}  // namespace tp
