// Minimal shared-memory parallelism for the load analyzers.
//
// The analyzers' work decomposes perfectly over source processors, so a
// static block partition over std::thread workers is all that is needed
// (no work stealing, no locks — each worker accumulates into its own
// buffer and the caller reduces).  parallel_for_blocks is deterministic:
// the same partition is produced for a given (count, threads).

#pragma once

#include <thread>
#include <vector>

#include "src/util/error.h"
#include "src/util/math.h"
#include "src/util/thread_annotations.h"
#include "src/util/worker_context.h"

namespace tp {

/// Invokes fn(worker_index, begin, end) on `workers` blocks, partitioning
/// [0, count) into contiguous ranges (the last blocks may be one shorter),
/// where workers = min(threads, count): tiny work items never spawn idle
/// threads.  The calling thread runs the last block itself, so only
/// workers - 1 threads are spawned and with threads == 1 (or count <= 1)
/// the call runs entirely inline.  The partition is deterministic for a
/// given (count, threads).  fn must be safe to run concurrently against
/// itself on disjoint ranges.
///
/// Every block (spawned AND inline, including the workers == 1 fast path)
/// runs under a PoolWorkerScope: obs-registry recording inside fn is
/// dropped so nested instrumentation cannot race the single-writer
/// registry, and the registry sees the same records for every thread
/// count.  Record reduced per-worker tallies after this returns instead
/// (see load/complete_exchange.cpp).
template <typename Fn>
void parallel_for_blocks(i64 count, i32 threads, Fn&& fn) {
  TP_REQUIRE(count >= 0, "negative work count");
  TP_REQUIRE(threads >= 1, "need at least one thread");
  const i32 workers =
      static_cast<i32>(std::min<i64>(threads, std::max<i64>(count, 1)));
  if (workers == 1) {
    const PoolWorkerScope worker_scope;
    fn(0, i64{0}, count);
    return;
  }
  // Spawned workers adopt the caller's phase context (profiler hooks, see
  // worker_context.h) so phases pushed inside fn report the same path as
  // the caller-inline block; the inline block below needs no adoption —
  // it already runs on the caller's stack.
  const PhaseContextHooks* hooks = phase_context_hooks();
  void* token = hooks != nullptr ? hooks->capture() : nullptr;
  std::vector<Thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  const i64 base = count / workers;
  const i64 extra = count % workers;
  i64 begin = 0;
  for (i32 w = 0; w < workers - 1; ++w) {
    const i64 len = base + (w < extra ? 1 : 0);
    const i64 end = begin + len;
    pool.emplace_back([&fn, hooks, token, w, begin, end] {
      const PoolWorkerScope worker_scope;
      void* cookie = token != nullptr ? hooks->adopt(token) : nullptr;
      fn(w, begin, end);
      if (cookie != nullptr) hooks->restore(cookie);
    });
    begin = end;
  }
  {
    const PoolWorkerScope worker_scope;
    fn(workers - 1, begin, count);
  }
  for (auto& t : pool) t.join();
  if (token != nullptr) hooks->release(token);
}

/// Work-size cutover: how many of `threads` workers are worth spawning
/// for `count` work items when each worker should own at least
/// `min_per_worker` of them.  Below the threshold the answer is 1 —
/// thread spawn/join (~tens of µs) plus the per-worker buffer reduction
/// costs more than it saves: BENCH_4 flagged a four-worker load kernel
/// losing to one worker on 4032 source-destination pairs.  Callers take
/// the serial path when this returns 1.
inline i32 effective_workers(i64 count, i32 threads, i64 min_per_worker) {
  TP_REQUIRE(threads >= 1, "need at least one thread");
  TP_REQUIRE(min_per_worker >= 1, "need a positive work cutover");
  const i64 by_work = std::max<i64>(count / min_per_worker, 1);
  return static_cast<i32>(std::min<i64>(threads, by_work));
}

/// A sensible default worker count for this machine.
inline i32 default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<i32>(hw);
}

}  // namespace tp
