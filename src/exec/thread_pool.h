// Thread pool behind every parallel hot path.
//
// The pool owns `threads - 1` workers; the caller of `parallel_for`
// participates as the final executor, so `ThreadPool(1)` spawns no threads
// and runs everything inline on the calling thread — the serial path IS the
// one-thread pool. A loop's iterations are split into a fixed set of
// contiguous chunks, a few per executor, and one chunk cursor hands them
// out: each executor claims the next whole chunk under the pool's mutex
// until none is left, so executors that draw cheap chunks absorb the
// imbalance of expensive ones (the balls of a scenario vary wildly in
// evaluation cost). A loop never adds work while it runs, so one shared
// cursor is all the scheduling it needs.
//
// Determinism contract: `parallel_for` guarantees only that fn(i) runs
// exactly once per index, on some executor, at some time. Callers that need
// scheduling-independent results (all of locald does) must make each
// iteration self-contained — writes go to per-index slots or commutative
// accumulators, and randomness comes from `Rng::stream` counters rather than
// shared sequential state. See docs/ARCHITECTURE.md, "Execution engine".
//
// Nested `parallel_for` calls (from inside a running iteration) execute
// inline on the calling executor rather than deadlocking on the pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace locald::exec {

class ThreadPool {
 public:
  // `threads` <= 0 means hardware_parallelism().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Executors available to a loop: workers plus the calling thread.
  int parallelism() const { return static_cast<int>(workers_.size()) + 1; }

  static int hardware_parallelism();

  // Runs fn(i) exactly once for every i in [0, n); blocks until all
  // iterations finished. The first exception thrown by any iteration is
  // rethrown on the caller after the loop drains (remaining chunks are
  // skipped). Runs inline when the pool has no workers, when n is tiny, or
  // when called from inside another parallel_for of any pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_main();
  // Claims and runs chunks of the current loop until none is left. `lk`
  // holds `mu_` on entry and on return.
  void run_chunks(std::unique_lock<std::mutex>& lk);

  std::vector<std::thread> workers_;

  std::mutex submit_mu_;  // one loop at a time

  // The current loop and the cursor over its chunks, all guarded by mu_.
  std::mutex mu_;
  std::condition_variable wake_cv_;  // workers: a new loop, or stop
  std::condition_variable done_cv_;  // caller: the last chunk finished
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_count_ = 0;
  std::size_t next_chunk_ = 0;
  std::size_t chunks_remaining_ = 0;
  std::exception_ptr first_error_;
};

// Serial-or-parallel loop, the one entry point hot paths call: a null pool
// runs fn(0), ..., fn(n - 1) in order on the calling thread, any other pool
// runs `pool->parallel_for(n, fn)`.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace locald::exec
