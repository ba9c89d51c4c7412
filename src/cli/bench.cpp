#include "cli/bench.h"

#include <optional>

#include "exec/context.h"
#include "gen/workload.h"
#include "local/fault_profile.h"
#include "obs/process.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "support/format.h"
#include "support/schema.h"

namespace locald::cli {

namespace {

// One (family, size) cell, measured at every thread count of the grid.
struct BenchCell {
  std::string selector;  // as requested (family text)
  int size = 0;
  std::string error;  // resolution/build failure; empty otherwise
  gen::WorkloadResult result;   // from the first thread count
  // Event-engine robustness pass (bench --faults only), first thread count.
  std::optional<gen::FaultRobustnessResult> fault;
  bool threads_agree = true;    // later counts reproduced `result`
  std::vector<double> wall_ms;  // per thread-grid entry
  // Process peak RSS observed right after the cell's runs, in KiB.
  // ru_maxrss is a process-lifetime high-water mark, so the sequence is
  // monotone across cells; the jump at a cell is that cell's contribution.
  long peak_rss_kb = 0;
};

// `profile` is the resolved --faults selector, or null without one.
BenchCell run_cell(const std::string& selector, int size,
                   const BenchOptions& bench,
                   const local::FaultProfileInstance* profile) {
  BenchCell cell;
  cell.selector = selector;
  cell.size = size;
  std::optional<gen::FamilyInstanceSpec> spec;
  try {
    spec.emplace(gen::resolve_family_text(selector, size));
  } catch (const std::exception& e) {
    cell.error = e.what();
    return cell;
  }
  gen::WorkloadOptions wopts;
  wopts.seed = bench.seed;
  for (std::size_t t = 0; t < bench.thread_grid.size(); ++t) {
    const int threads = bench.thread_grid[t];
    std::optional<exec::ThreadPool> pool;
    if (threads != 1) {
      pool.emplace(threads);
    }
    exec::ExecContext ctx;
    ctx.pool = pool ? &*pool : nullptr;
    const obs::Stopwatch stopwatch;
    gen::WorkloadResult result;
    std::optional<gen::FaultRobustnessResult> fault;
    try {
      obs::Span span("bench-cell",
                     selector + " threads=" + std::to_string(threads));
      result = gen::run_family_workload(*spec, wopts, ctx);
      if (profile) {
        fault.emplace(gen::run_fault_robustness(*spec, wopts, *profile, ctx));
      }
    } catch (const std::exception& e) {
      cell.error = e.what();
      return cell;
    }
    cell.wall_ms.push_back(stopwatch.elapsed_ms());
    if (t == 0) {
      cell.result = std::move(result);
      cell.fault = std::move(fault);
    } else if (cell.result != result || cell.fault != fault) {
      // The engine's central promise broke: record it as a cell failure so
      // the gate trips even without CI's external byte diff.
      cell.threads_agree = false;
    }
  }
  cell.peak_rss_kb = static_cast<long>(obs::peak_rss_kb());
  return cell;
}

void write_cell(JsonWriter& w, const BenchCell& cell,
                const BenchOptions& bench) {
  w.begin_object();
  w.key("family");
  w.value(cell.error.empty() ? cell.result.family : cell.selector);
  if (cell.size > 0) {
    w.key("size");
    w.value(cell.size);
  }
  if (!cell.error.empty()) {
    w.key("error");
    w.value(cell.error);
    w.key("ok");
    w.value(false);
    w.end_object();
    return;
  }
  const gen::WorkloadResult& r = cell.result;
  w.key("nodes");
  w.value(r.nodes);
  w.key("edges");
  w.value(r.edges);
  w.key("max_degree");
  w.value(r.max_degree);
  w.key("invariants_ok");
  w.value(r.invariants_ok);
  if (!r.invariant_failures.empty()) {
    w.key("invariant_failures");
    w.begin_array();
    for (const std::string& why : r.invariant_failures) {
      w.value(why);
    }
    w.end_array();
  }
  w.key("ball_classes");
  w.value(r.ball_classes);
  w.key("memo_hits");
  w.value(r.memo_hits);
  w.key("verdicts");
  w.begin_array();
  for (const gen::PanelVerdict& v : r.panel) {
    w.begin_object();
    w.key("algorithm");
    w.value(v.algorithm);
    w.key("yes_nodes");
    w.value(v.yes_nodes);
    w.key("accepted");
    w.value(v.accepted);
    w.end_object();
  }
  w.end_array();
  if (cell.fault) {
    const gen::FaultRobustnessResult& f = *cell.fault;
    w.key("fault");
    w.begin_object();
    w.key("profile");
    w.value(f.profile);
    w.key("rows");
    w.begin_array();
    for (const gen::FaultPanelRow& row : f.panel) {
      w.begin_object();
      w.key("algorithm");
      w.value(row.algorithm);
      w.key("sync_yes");
      w.value(row.sync_yes);
      w.key("faulty_yes");
      w.value(row.faulty_yes);
      w.key("agree_nodes");
      w.value(row.agree_nodes);
      w.key("control_identical");
      w.value(row.control_identical);
      w.end_object();
    }
    w.end_array();
    w.key("events_dispatched");
    w.value(f.stats.events_dispatched);
    w.key("messages_dropped");
    w.value(f.stats.messages_dropped);
    w.key("messages_delayed");
    w.value(f.stats.messages_delayed);
    w.key("fragments_sent");
    w.value(f.stats.fragments_sent);
    w.key("max_queue_depth");
    w.value(f.stats.max_queue_depth);
    w.key("ok");
    w.value(f.ok());
    w.end_object();
  }
  w.key("threads_agree");
  w.value(cell.threads_agree);
  w.key("ok");
  w.value(r.invariants_ok && cell.threads_agree &&
          (!cell.fault || cell.fault->ok()));
  if (bench.timing) {
    w.key("timing");
    w.begin_array();
    for (std::size_t t = 0; t < cell.wall_ms.size(); ++t) {
      w.begin_object();
      w.key("threads");
      w.value(bench.thread_grid[t]);
      w.key("wall_ms");
      w.value(cell.wall_ms[t], 3);
      w.end_object();
    }
    w.end_array();
    // Scheduling- and allocator-dependent like wall time, so --timing only.
    w.key("peak_rss_kb");
    w.value(static_cast<std::int64_t>(cell.peak_rss_kb));
  }
  w.end_object();
}

}  // namespace

const std::vector<std::string>& canonicalization_bench_families() {
  // Hypercube and complete-bipartite balls are stars with interchangeable
  // leaves (the shapes that cost k! search leaves without orbit pruning);
  // `complete-bipartite:a=1` IS a star, so its hub ball has size-1 leaves;
  // caterpillars hang leaf bundles off every spine node. These cells were
  // inexact (degree-profile fallback) before the two-tier engine.
  static const std::vector<std::string> families = {
      "hypercube",
      "complete-bipartite",
      "complete-bipartite:a=1",
      "caterpillar:legs=8",
  };
  return families;
}

int run_bench(const BenchOptions& bench_in, std::ostream& out) {
  BenchOptions bench = bench_in;
  if (bench.canon) {
    bench.families = canonicalization_bench_families();
  }
  if (bench.families.empty()) {
    for (const gen::Family& f : gen::family_registry()) {
      bench.families.push_back(f.name);
    }
  }
  if (bench.sizes.empty()) {
    bench.sizes.push_back(0);
  }
  if (bench.thread_grid.empty()) {
    bench.thread_grid.push_back(1);
  }
  // Selector errors no size can change are usage errors, raised before any
  // cell runs; the ones a size mapping causes stay cell errors.
  for (const std::string& selector : bench.families) {
    gen::resolve_family_text(selector);
  }
  std::optional<local::FaultProfileInstance> profile;
  if (!bench.faults.empty()) {
    profile.emplace(local::resolve_faults_text(bench.faults));
  }

  const obs::Stopwatch bench_stopwatch;
  std::vector<BenchCell> cells;
  cells.reserve(bench.families.size() * bench.sizes.size());
  // Grid order is (family, size), families outermost; cells run serially
  // and parallelism lives inside the workload, keeping the JSON order and
  // the per-cell determinism independent of the machine.
  for (const std::string& selector : bench.families) {
    for (int size : bench.sizes) {
      cells.push_back(
          run_cell(selector, size, bench, profile ? &*profile : nullptr));
    }
  }
  const double total_ms = bench_stopwatch.elapsed_ms();

  bool all_ok = true;
  for (const BenchCell& cell : cells) {
    all_ok = all_ok && cell.error.empty() && cell.result.invariants_ok &&
             cell.threads_agree && (!cell.fault || cell.fault->ok());
  }

  JsonWriter w(out, 2);
  w.begin_object();
  w.key("tool");
  w.value("locald-bench");
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key("graph_core");
  w.value(kGraphCoreId);
  w.key("seed");
  w.value(bench.seed);
  if (!bench.faults.empty()) {
    w.key("faults");
    w.value(bench.faults);
  }
  w.key("panel");
  w.begin_array();
  for (const std::string& name : gen::workload_panel_names()) {
    w.value(name);
  }
  w.end_array();
  if (bench.timing) {
    // Thread counts are grid coordinates, but emitting them in the default
    // document would break the `--threads 1` vs `--threads N` byte gate —
    // so, like everything scheduling-adjacent, they ride with --timing.
    w.key("threads");
    w.begin_array();
    for (int threads : bench.thread_grid) {
      w.value(threads);
    }
    w.end_array();
    w.key("total_wall_ms");
    w.value(total_ms, 3);
    w.key("peak_rss_kb");
    w.value(static_cast<std::int64_t>(obs::peak_rss_kb()));
  }
  w.key("cells");
  w.begin_array();
  for (const BenchCell& cell : cells) {
    write_cell(w, cell, bench);
  }
  w.end_array();
  w.key("all_ok");
  w.value(all_ok);
  w.end_object();
  out << "\n";
  return all_ok ? 0 : 1;
}

}  // namespace locald::cli
