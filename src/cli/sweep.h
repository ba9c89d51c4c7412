// `locald sweep` — fan one scenario out across a parameter grid and emit a
// single machine-readable JSON document.
//
// The document on stdout is the CI perf gate's contract: every field in the
// default output is scheduling-deterministic, so two sweeps of the same
// (scenario, seed, sizes, trials) must be byte-identical at ANY --threads
// value — CI compares `--threads 1` against `--threads $(nproc)` with a
// plain byte diff. Wall times, thread counts and cache hit rates are real
// but scheduling-dependent, so they only appear when `--timing` opts in
// (the run CI uploads as the benchmark artifact).
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "exec/thread_pool.h"

namespace locald::cli {

struct SweepOptions {
  std::uint64_t seed = 42;
  std::vector<int> sizes;  // grid of --size values; empty => {0} (default)
  int trials = 0;          // per-cell --trials (0 = scenario default)
  // `--family` selector handed to every cell (family-aware scenarios only;
  // rejected otherwise). For `family-workload` the size grid then sweeps
  // the family's size mapping.
  std::string family;
  // `--faults` profile selector handed to every cell (fault-aware scenarios
  // only; rejected otherwise). The event engine's schedule is seeded, so the
  // byte-identity contract above holds with faults enabled.
  std::string faults;
  bool timing = false;     // include the volatile timing/cache fields
  // The pool every cell runs on (null = serial). The caller owns it: the
  // CLI passes the one it built from --threads, the serving layer its
  // process-wide pool. The document bytes are identical either way.
  exec::ThreadPool* pool = nullptr;
};

// Runs every cell and writes the JSON document to `out`. Returns the
// process exit code: 0 when every cell reproduced the paper's prediction,
// 1 otherwise. Throws what `resolve_scenario` throws, before writing
// anything, for an unknown scenario or an unsupported selector.
//
// The document is written incrementally: the prelude (everything before the
// cells array), then one cell object as each cell finishes, then the
// postlude. `flush`, when set, is invoked after each of those writes — the
// serving layer's chunked-transfer hook (each flush boundary becomes one
// chunk, so `/v1/sweep` streams cells as they finish). The bytes written to
// `out` are identical whether or not `flush` is set: streaming changes only
// WHEN bytes leave, never WHICH bytes — the byte-identity contract above
// extends across the streamed/buffered split. A `flush` that throws aborts
// the sweep (the exception propagates; the serving layer uses this to stop
// computing for a disconnected client).
int run_sweep(const std::string& scenario_name, const SweepOptions& sweep,
              std::ostream& out, const std::function<void()>& flush = {});

}  // namespace locald::cli
