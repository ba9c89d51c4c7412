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
  queues_.reserve(workers + 1);
  for (std::size_t i = 0; i < workers + 1; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
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
  const std::size_t executors = queues_.size();
  // A few chunks per executor so stealing has something to grab; never
  // smaller than one index per chunk.
  const std::size_t chunk_count = std::min(n, executors * 4);
  const std::size_t base = n / chunk_count;
  const std::size_t extra = n % chunk_count;

  // Loop state must be in place before the first chunk becomes visible: a
  // straggler worker from the previous loop may still be polling the queues
  // and can legally start on new chunks the moment they are pushed.
  body_ = &fn;
  first_error_ = nullptr;
  chunks_remaining_.store(chunk_count, std::memory_order_release);

  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunk_count; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    Chunk chunk{begin, begin + len};
    begin += len;
    Queue& q = *queues_[c % executors];
    std::lock_guard<std::mutex> lk(q.mu);
    q.chunks.push_back(chunk);
  }

  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    ++generation_;
  }
  wake_cv_.notify_all();

  // The caller is the last executor.
  run_chunks(executors - 1);
  {
    std::unique_lock<std::mutex> lk(done_mu_);
    done_cv_.wait(lk, [this] {
      return chunks_remaining_.load(std::memory_order_acquire) == 0;
    });
  }
  body_ = nullptr;
  if (first_error_) {
    std::rethrow_exception(first_error_);
  }
}

void ThreadPool::worker_main(std::size_t self) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(wake_mu_);
      wake_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
    }
    run_chunks(self);
  }
}

bool ThreadPool::try_pop(std::size_t self, Chunk& out) {
  {
    Queue& own = *queues_[self];
    std::lock_guard<std::mutex> lk(own.mu);
    if (!own.chunks.empty()) {
      out = own.chunks.back();  // LIFO: stay on recently dealt ranges
      own.chunks.pop_back();
      return true;
    }
  }
  for (std::size_t i = 1; i < queues_.size(); ++i) {
    Queue& victim = *queues_[(self + i) % queues_.size()];
    std::lock_guard<std::mutex> lk(victim.mu);
    if (!victim.chunks.empty()) {
      out = victim.chunks.front();  // FIFO: steal the range farthest from
      victim.chunks.pop_front();    // the victim's working end
      return true;
    }
  }
  return false;
}

void ThreadPool::execute(const Chunk& chunk) {
  // After a failure the loop still drains, but remaining chunks are skipped
  // so the caller sees the first error quickly.
  {
    std::lock_guard<std::mutex> lk(error_mu_);
    if (first_error_) {
      return;
    }
  }
  try {
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      (*body_)(i);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lk(error_mu_);
    if (!first_error_) {
      first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::run_chunks(std::size_t self) {
  t_inside_loop = true;
  Chunk chunk;
  while (chunks_remaining_.load(std::memory_order_acquire) > 0 &&
         try_pop(self, chunk)) {
    execute(chunk);
    if (chunks_remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(done_mu_);
      done_cv_.notify_all();
    }
  }
  t_inside_loop = false;
}

}  // namespace locald::exec
