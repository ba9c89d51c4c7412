// `locald bench` — sweep the workload generator's (family x size x threads)
// grid on the execution engine and emit one machine-readable JSON document.
//
// Every cell is one gen::run_family_workload measurement. The default
// document is the CI perf-smoke gate's contract: all fields — verdict
// counts, ball-class censuses, serial-equivalent memo-hit counts, invariant
// audits — are pure functions of (seed, families, sizes), so two bench runs
// of the same grid must be byte-identical at ANY `--threads` value; CI
// compares `--threads 1` against `--threads $(nproc)` with a plain byte
// diff. When the thread grid holds several counts, bench additionally
// re-runs every cell at each count and fails the cell if any deterministic
// field diverges — the gate runs inside the tool as well as in CI. Wall
// times and live cache counters are real but scheduling-dependent, so they
// only appear under `--timing` (the run CI uploads as the benchmark
// artifact).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace locald::cli {

struct BenchOptions {
  std::uint64_t seed = 42;
  // `--canon`: use the pinned canonicalization-bound grid (the families
  // whose ball censuses are dominated by symmetric-ball canonicalization —
  // hypercubes, complete-bipartite, stars, caterpillars) instead of
  // `families`. CI gates this grid serial vs parallel; see
  // canonicalization_bench_families().
  bool canon = false;
  // `--family` selectors in grid order; empty = every registered family.
  std::vector<std::string> families;
  // `--faults` profile selector; when non-empty every cell additionally
  // runs the event-engine fault-robustness pass (gen::run_fault_robustness)
  // under this profile, with its deterministic fields included in the
  // document and in the cross-thread-count agreement gate.
  std::string faults;
  // `--sizes` grid applied to each family's size mapping; empty = {0}
  // (family defaults).
  std::vector<int> sizes;
  // Thread counts each cell runs at (0 = hardware); the *first* count's
  // results are the document's deterministic fields, later counts must
  // reproduce them byte-for-byte. Empty = {1}.
  std::vector<int> thread_grid;
  bool timing = false;  // include the volatile wall-time/cache fields
};

// The pinned `--canon` grid: family selectors whose workload cells are
// canonicalization-bound (censuses over highly symmetric balls). Pinned so
// timings of the grid stay comparable across versions.
const std::vector<std::string>& canonicalization_bench_families();

// Runs the grid and writes the JSON document to `out`. Returns the process
// exit code: 0 when every cell's invariants held and every thread count
// reproduced the same deterministic fields, 1 otherwise. Throws Error,
// before any cell runs, for a --family or --faults selector that fails at
// every size.
int run_bench(const BenchOptions& bench, std::ostream& out);

}  // namespace locald::cli
