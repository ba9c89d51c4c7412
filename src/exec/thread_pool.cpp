#include "exec/thread_pool.h"

#include <algorithm>

namespace locald::exec {

namespace {

// Set while the current thread executes loop iterations; a nested
// parallel_for (from any pool) sees it and runs inline instead of trying to
// re-enter a pool that is busy running it.
thread_local bool t_inside_loop = false;

}  // namespace

int ThreadPool::hardware_parallelism() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    threads = hardware_parallelism();
  }
  const std::size_t workers = static_cast<std::size_t>(threads - 1);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (workers_.empty() || t_inside_loop || n == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  std::lock_guard<std::mutex> submit(submit_mu_);
  std::unique_lock<std::mutex> lk(mu_);
  // A few chunks per executor so a straggling one can be absorbed; never
  // smaller than one index per chunk. The whole loop state changes under
  // mu_, so a worker still leaving the previous loop finds either no chunk
  // or a whole chunk of this loop with this body.
  body_ = &fn;
  n_ = n;
  chunk_count_ = std::min(n, static_cast<std::size_t>(parallelism()) * 4);
  next_chunk_ = 0;
  chunks_remaining_ = chunk_count_;
  first_error_ = nullptr;
  ++generation_;
  wake_cv_.notify_all();

  // The caller is the last executor.
  run_chunks(lk);
  done_cv_.wait(lk, [this] { return chunks_remaining_ == 0; });
  body_ = nullptr;
  if (first_error_) {
    std::rethrow_exception(first_error_);
  }
}

void ThreadPool::worker_main() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    wake_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
    if (stop_) {
      return;
    }
    seen = generation_;
    run_chunks(lk);
  }
}

void ThreadPool::run_chunks(std::unique_lock<std::mutex>& lk) {
  t_inside_loop = true;
  while (next_chunk_ < chunk_count_) {
    // Chunk c covers [c * base + min(c, extra), ...) with base + 1 indices
    // for the first `extra` chunks and base for the rest.
    const std::size_t c = next_chunk_++;
    const std::size_t base = n_ / chunk_count_;
    const std::size_t extra = n_ % chunk_count_;
    const std::size_t begin = c * base + std::min(c, extra);
    const std::size_t end = begin + base + (c < extra ? 1 : 0);
    const std::function<void(std::size_t)>& body = *body_;
    // After a failure the loop still drains, but remaining chunks are
    // skipped so the caller sees the first error quickly.
    const bool skip = first_error_ != nullptr;
    lk.unlock();
    std::exception_ptr error;
    if (!skip) {
      try {
        for (std::size_t i = begin; i < end; ++i) {
          body(i);
        }
      } catch (...) {
        error = std::current_exception();
      }
    }
    lk.lock();
    if (error && !first_error_) {
      first_error_ = error;
    }
    if (--chunks_remaining_ == 0) {
      done_cv_.notify_all();
    }
  }
  t_inside_loop = false;
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
  }
}

}  // namespace locald::exec
