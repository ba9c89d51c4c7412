// Work-stealing thread pool behind every parallel hot path.
//
// The pool owns `threads - 1` workers; the caller of `parallel_for`
// participates as the final executor, so `ThreadPool(1)` spawns no threads
// and runs everything inline on the calling thread — the serial path IS the
// one-thread pool. Loop iterations are split into contiguous chunks dealt
// round-robin across per-executor deques; an executor drains its own deque
// LIFO and steals from the others FIFO, which keeps contiguous index ranges
// on one core while letting idle executors absorb imbalance (the balls of a
// scenario vary wildly in evaluation cost).
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

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
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
  struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  struct Queue {
    std::mutex mu;
    std::deque<Chunk> chunks;
  };

  void worker_main(std::size_t self);
  // Drains chunks (own deque first, then stealing) until none are left.
  void run_chunks(std::size_t self);
  bool try_pop(std::size_t self, Chunk& out);
  void execute(const Chunk& chunk);

  std::vector<std::thread> workers_;
  // One deque per worker plus one for the submitting caller (last slot).
  std::vector<std::unique_ptr<Queue>> queues_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;

  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::atomic<std::size_t> chunks_remaining_{0};

  std::mutex submit_mu_;  // one loop at a time
  const std::function<void(std::size_t)>* body_ = nullptr;

  std::mutex error_mu_;
  std::exception_ptr first_error_;
};

}  // namespace locald::exec
