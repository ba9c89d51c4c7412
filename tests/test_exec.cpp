// Tests for the execution engine's building blocks: the chunk-cursor
// thread pool and the sharded verdict cache. Scheduling-determinism of the
// simulator entry points built on them is covered in test_determinism.cpp.
#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/context.h"
#include "exec/thread_pool.h"
#include "exec/verdict_cache.h"
#include "exec/verdict_store.h"

namespace locald::exec {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    constexpr std::size_t n = 10'000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPool, EmptyAndSingletonLoops) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ReusableAcrossManyLoops) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(100, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 5'000u);
}

TEST(ThreadPool, NestedLoopsRunInline) {
  ThreadPool pool(4);
  std::atomic<std::size_t> inner_total{0};
  pool.parallel_for(16, [&](std::size_t) {
    // A nested loop must complete inline rather than deadlock on the pool.
    pool.parallel_for(8, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 16u * 8u);
}

TEST(ThreadPool, PropagatesFirstException) {
  for (int threads : {1, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.parallel_for(64,
                                   [&](std::size_t i) {
                                     if (i == 13) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
                 std::runtime_error);
    // The pool stays usable after a failed loop.
    std::atomic<int> ok{0};
    pool.parallel_for(8, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 8);
  }
}

// The server's pattern: several request threads share one pool, so loops
// from different submitters queue behind each other.
TEST(ThreadPool, ConcurrentSubmittersEachSeeEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kLoops = 200;
  std::atomic<int> bad_loops{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int loop = 0; loop < kLoops; ++loop) {
        const std::size_t n = 1 + static_cast<std::size_t>(s * 37 + loop) % 97;
        std::vector<std::atomic<int>> hits(n);
        pool.parallel_for(n, [&](std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const std::atomic<int>& h : hits) {
          if (h.load() != 1) {
            bad_loops.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : submitters) {
    t.join();
  }
  EXPECT_EQ(bad_loops.load(), 0);
}

// Workers still leaving one loop must never run a chunk of it after the
// loop returned, nor a chunk of the next loop with the old body.
TEST(ThreadPool, BackToBackLoopsNeverRunAStaleBody) {
  ThreadPool pool(8);
  constexpr int kLoops = 500;
  std::atomic<int> current{-1};
  std::atomic<int> stale_calls{0};
  std::vector<std::vector<std::atomic<int>>> hits;
  hits.reserve(kLoops);
  for (int loop = 0; loop < kLoops; ++loop) {
    const std::size_t n = loop % 2 == 0 ? 2 : 64;
    std::vector<std::atomic<int>>& loop_hits = hits.emplace_back(n);
    current.store(loop);
    pool.parallel_for(n, [&, loop](std::size_t i) {
      if (current.load() != loop) {
        stale_calls.fetch_add(1);
      }
      loop_hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    current.store(-1);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(loop_hits[i].load(), 1) << "loop " << loop << " index " << i;
    }
  }
  // A late body would have bumped some count after its loop was checked.
  for (int loop = 0; loop < kLoops; ++loop) {
    for (const std::atomic<int>& h : hits[static_cast<std::size_t>(loop)]) {
      ASSERT_EQ(h.load(), 1) << "loop " << loop;
    }
  }
  EXPECT_EQ(stale_calls.load(), 0);
}

TEST(ThreadPool, HardwareParallelismIsPositive) {
  EXPECT_GE(ThreadPool::hardware_parallelism(), 1);
  ThreadPool defaulted;
  EXPECT_EQ(defaulted.parallelism(), ThreadPool::hardware_parallelism());
  ThreadPool serial(1);
  EXPECT_EQ(serial.parallelism(), 1);
}

TEST(ExecContext, DefaultIsSerialEngine) {
  ExecContext ctx;
  EXPECT_EQ(ctx.parallelism(), 1);
  std::vector<std::size_t> order;
  parallel_for(ctx.pool, 4, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(VerdictCache, MissThenHit) {
  VerdictCache cache;
  EXPECT_FALSE(cache.lookup(7, "alg", "ball-a").has_value());
  cache.insert(7, "alg", "ball-a", true);
  const auto hit = cache.lookup(7, "alg", "ball-a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(VerdictCache, KeysSeparateAlgorithms) {
  VerdictCache cache;
  cache.insert(1, "alg-a", "ball", true);
  cache.insert(1, "alg-b", "ball", false);
  EXPECT_TRUE(*cache.lookup(1, "alg-a", "ball"));
  EXPECT_FALSE(*cache.lookup(1, "alg-b", "ball"));
}

TEST(VerdictCache, FingerprintCollisionsCannotCorruptVerdicts) {
  VerdictCache cache(4);
  // Same fingerprint (same shard), different canonical encodings: both
  // classes keep their own verdict.
  cache.insert(42, "alg", "ball-yes", true);
  cache.insert(42, "alg", "ball-no", false);
  EXPECT_TRUE(*cache.lookup(42, "alg", "ball-yes"));
  EXPECT_FALSE(*cache.lookup(42, "alg", "ball-no"));
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(VerdictCache, SafeUnderConcurrentMixedTraffic) {
  VerdictCache cache;
  ThreadPool pool(8);
  constexpr std::size_t kClasses = 64;
  pool.parallel_for(8 * kClasses, [&](std::size_t i) {
    const std::uint64_t fp = i % kClasses;
    const std::string enc = "ball-" + std::to_string(fp);
    const bool accepted = fp % 2 == 0;
    if (const auto hit = cache.lookup(fp, "alg", enc)) {
      EXPECT_EQ(*hit, accepted);
    } else {
      cache.insert(fp, "alg", enc, accepted);
    }
  });
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, kClasses);
  EXPECT_EQ(stats.hits + stats.misses, 8 * kClasses);
}

TEST(VerdictCache, ClearDropsEntriesButKeepsMonotonicCounters) {
  VerdictCache cache(4);
  cache.insert(1, "alg", "ball-a", true);
  cache.insert(2, "alg", "ball-b", false);
  EXPECT_TRUE(cache.lookup(1, "alg", "ball-a").has_value());  // one hit
  EXPECT_EQ(cache.stats().entries, 2u);

  cache.clear();
  const auto after = cache.stats();
  EXPECT_EQ(after.entries, 0u);
  // The serving layer reports hits/misses as monotonic metrics; a reset
  // must not rewind them.
  EXPECT_EQ(after.hits, 1u);
  EXPECT_EQ(after.misses, 0u);

  // Dropped classes simply get re-decided.
  EXPECT_FALSE(cache.lookup(1, "alg", "ball-a").has_value());
  cache.insert(1, "alg", "ball-a", true);
  EXPECT_TRUE(*cache.lookup(1, "alg", "ball-a"));
}

TEST(VerdictCache, EvictedEntriesComeBackFromTheStoreNotRecomputation) {
  // clear() only drops the MEMORY tier: with a store attached, every insert
  // wrote through to disk, so an evicted-then-requeried class is a store
  // hit (a promotion), never a miss forcing recomputation.
  char tmpl[] = "/tmp/locald-exec-store-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  {
    VerdictStore store(dir, 2);
    VerdictCache cache(4);
    cache.attach_store(&store);
    cache.insert(1, "alg", "ball-a", true);
    cache.insert(2, "alg", "ball-b", false);

    cache.clear();  // the serving layer's memory-bound reset
    const auto evicted = cache.stats();
    EXPECT_EQ(evicted.entries, 0u);
    EXPECT_EQ(evicted.misses, 0u);

    const auto a = cache.lookup(1, "alg", "ball-a");
    const auto b = cache.lookup(2, "alg", "ball-b");
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_TRUE(*a);
    EXPECT_FALSE(*b);
    const auto after = cache.stats();
    EXPECT_EQ(after.store_hits, 2u);
    EXPECT_EQ(after.misses, 0u);  // the store answered; nothing to recompute
    // The store hit promoted both classes back into the memory tier: the
    // next lookup is an ordinary memory hit.
    EXPECT_EQ(after.entries, 2u);
    EXPECT_TRUE(*cache.lookup(1, "alg", "ball-a"));
    EXPECT_EQ(cache.stats().store_hits, 2u);
    cache.attach_store(nullptr);
  }
  // Best-effort scratch cleanup (two shard logs + the directory).
  for (const char* shard : {"/shard-00.log", "/shard-01.log"}) {
    ::unlink((dir + shard).c_str());
  }
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace locald::exec
