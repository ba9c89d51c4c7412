// The execution context threaded through every parallel hot path.
//
// Both members are optional and non-owning: a null pool means "run serially
// on the calling thread" (`exec::parallel_for`'s serial loop) and a null
// cache means "no memoization", so the default-constructed context IS the
// serial engine and legacy callers keep their exact behaviour. The CLI owns
// the pool (sized by --threads) and a per-run VerdictCache and hands this
// struct down through ScenarioOptions.
#pragma once

#include "exec/thread_pool.h"
#include "exec/verdict_cache.h"

namespace locald::exec {

struct ExecContext {
  ThreadPool* pool = nullptr;     // null => serial
  VerdictCache* cache = nullptr;  // null => no memoization

  int parallelism() const { return pool == nullptr ? 1 : pool->parallelism(); }
};

}  // namespace locald::exec
