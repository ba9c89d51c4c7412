// Entry point of the `locald` scenario runner.
//
//   locald list [--families|--faults] [--format text|csv|json]
//   locald run <scenario>... [--seed N] [--size N] [--trials N]
//              [--family spec] [--faults spec] [--threads N]
//              [--format text|csv|json]
//   locald run --all [options]
//   locald sweep <scenario> [--sizes a,b,c] [--trials N] [--seed N]
//                [--family spec] [--faults spec] [--threads N] [--timing]
//                [--format json]
//   locald bench [--family spec]... [--faults spec] [--sizes a,b,c]
//                [--seed N] [--threads a,b,c] [--timing]
//   locald serve [--port P] [--threads N] [--workers N] [--queue N]
//                [--store DIR [--follower]]
//   locald help [scenario]
//
// Exit status: 0 when every executed scenario reproduced the paper's
// prediction, 1 when any scenario reported a mismatch, 2 on usage errors
// (including every `Error` that escapes a command, such as an unknown
// scenario or a selector the scenario does not take).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli/bench.h"
#include "cli/scenario.h"
#include "cli/sweep.h"
#include "exec/context.h"
#include "gen/family.h"
#include "local/fault_profile.h"
#include "obs/process.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "server/api.h"
#include "server/server.h"
#include "support/selector.h"

namespace locald::cli {
namespace {

int usage(std::ostream& out, int status) {
  out << "locald — scenario runner for the PODC 2013 reproduction\n"
         "\n"
         "usage:\n"
         "  locald list [--format text|csv]      enumerate paper scenarios\n"
         "  locald list --families               enumerate graph families\n"
         "  locald list --faults                 enumerate fault profiles\n"
         "  locald run <scenario>... [options]   run named scenarios\n"
         "  locald run --all [options]           run the whole registry\n"
         "  locald sweep <scenario> [options]    fan one scenario across a\n"
         "                                       size grid; JSON on stdout\n"
         "  locald bench [options]               sweep the workload "
         "generator's\n"
         "                                       (family x size x threads) "
         "grid;\n"
         "                                       JSON on stdout\n"
         "  locald serve [options]               long-lived HTTP/JSON API\n"
         "                                       over the scenario registry\n"
         "  locald help [scenario]               describe a scenario\n"
         "\n"
         "options:\n"
         "  --seed N        RNG seed (default 42)\n"
         "  --size N        scenario scale knob (scenario-specific; see "
         "`locald help <scenario>`)\n"
         "  --sizes a,b,c   sweep/bench: the --size grid (default: scenario "
         "or family\n"
         "                  default size)\n"
         "  --trials N      sample count for randomized scenarios\n"
         "  --family F      graph-family selector `name:k=v,...` (see "
         "`locald list\n"
         "                  --families`); family-aware scenarios only; "
         "repeatable for bench\n"
         "  --faults P      fault-profile selector `name:k=v,...` (see "
         "`locald list\n"
         "                  --faults`); fault-aware scenarios only; the "
         "event engine's\n"
         "                  schedule is seeded, so results stay bit-"
         "identical\n"
         "  --canon         bench: the pinned canonicalization-bound grid "
         "(symmetric-ball\n"
         "                  families exercising the census kernel)\n"
         "  --threads N     execution-engine threads (0 = all hardware "
         "threads; default 1);\n"
         "                  results are bit-identical at every thread "
         "count; bench takes a\n"
         "                  comma-separated grid\n"
         "  --timing        include wall-time columns (run tables) or "
         "wall-time and\n"
         "                  cache-hit fields (sweep JSON); scheduling-"
         "dependent, so off\n"
         "                  by default — default output is a pure function "
         "of the inputs\n"
         "  --format F      run/list: text (default), csv, or json (run: "
         "one scenario);\n"
         "                  sweep: json\n"
         "  --port P        serve only: TCP port on 127.0.0.1 (default "
         "8080; 0 = ephemeral)\n"
         "  --workers N     serve only: concurrent request handlers "
         "(default 4)\n"
         "  --queue N       serve only: accepted-connection bound; beyond "
         "it requests\n"
         "                  are shed with 503 + Retry-After (default 64)\n"
         "  --store DIR     serve only: persistent verdict store backing "
         "the shared\n"
         "                  cache; a restarted server starts warm. One "
         "process per\n"
         "                  store is the writer (it holds the write "
         "lease); start\n"
         "                  more with --follower\n"
         "  --follower      serve only: open --store DIR read-only and "
         "follow the\n"
         "                  writer's appends (tail refresh on miss); a "
         "second writer\n"
         "                  without this flag is rejected at startup\n"
         "  --trace-out F   run/sweep/bench/serve: collect stage spans and "
         "write Chrome\n"
         "                  trace_event JSON to F (open in Perfetto or "
         "chrome://tracing);\n"
         "                  the deterministic stdout document is unchanged\n"
         "  --access-log F  serve only: append one NDJSON line per request "
         "to F (method,\n"
         "                  path, status, bytes, duration, worker, cache "
         "hits)\n";
  return status;
}

// Flag values parse through the shared strict reader `locald::parse_int`
// (support/format.h), the same one family selectors use.

// The most threads --threads (and serve's --workers) may start: anything
// far beyond the machine is a typo, not a request for a thousand OS
// threads, and the floor of 32 keeps cross-thread-count determinism checks
// runnable on small boxes.
long long max_threads() {
  return std::max(32LL, 4LL * exec::ThreadPool::hardware_parallelism());
}

// Comma-separated list of non-negative integers (--sizes, bench --threads);
// nullopt on an empty list or any malformed/negative item, with the
// offender reported through `bad_item` for the error message.
std::optional<std::vector<int>> parse_count_list(const std::string& text,
                                                 std::string* bad_item) {
  std::vector<int> out;
  std::istringstream list(text);
  std::string item;
  while (std::getline(list, item, ',')) {
    const auto parsed = parse_int(item);
    if (!parsed || *parsed < 0 ||
        *parsed > std::numeric_limits<int>::max()) {
      *bad_item = item;
      return std::nullopt;
    }
    out.push_back(static_cast<int>(*parsed));
  }
  if (out.empty()) {
    *bad_item = text;
    return std::nullopt;
  }
  return out;
}

int print_table(const ScenarioOptions& opts, const TextTable& table) {
  std::cout << (opts.format == OutputFormat::csv ? table.render_csv()
                                                 : table.render());
  return 0;
}

int list_scenarios(const ScenarioOptions& opts, const std::string& format) {
  if (format == "json") {
    // The same bytes GET /v1/scenarios serves (CI diff-checks this).
    std::cout << server::scenarios_document();
    return 0;
  }
  TextTable table({"scenario", "paper", "summary"});
  for (const Scenario& s : scenario_registry()) {
    table.add_row({s.name, s.paper_ref, s.summary});
  }
  return print_table(opts, table);
}

int list_families(const ScenarioOptions& opts, const std::string& format) {
  if (format == "json") {
    // The same bytes GET /v1/families serves (CI diff-checks this).
    std::cout << server::families_document();
    return 0;
  }
  TextTable table({"family", "parameters", "random", "summary"});
  for (const gen::Family& f : gen::family_registry()) {
    table.add_row({f.name, param_defaults(f.params),
                   f.randomized ? "yes" : "no", f.summary});
  }
  return print_table(opts, table);
}

int list_faults(const ScenarioOptions& opts, const std::string& format) {
  if (format == "json") {
    // The same bytes GET /v1/faults serves (CI diff-checks this).
    std::cout << server::faults_document();
    return 0;
  }
  TextTable table({"profile", "parameters", "summary"});
  for (const local::FaultProfile& p : local::fault_registry()) {
    table.add_row({p.name, param_defaults(p.params), p.summary});
  }
  return print_table(opts, table);
}

std::atomic<bool> g_shutdown{false};
void on_shutdown_signal(int) { g_shutdown.store(true); }

int run_serve(const server::ServeOptions& serve_opts) {
  server::Server srv(serve_opts);
  try {
    srv.start();
  } catch (const std::exception& e) {
    std::cerr << "serve: " << e.what() << "\n";
    return 2;
  }
  std::cout << "locald serve: http://" << serve_opts.host << ":" << srv.port()
            << " (workers=" << serve_opts.workers
            << ", queue=" << serve_opts.max_queue;
  if (!serve_opts.store_path.empty()) {
    std::cout << ", store=" << serve_opts.store_path << " ("
              << (serve_opts.store_follower ? "follower" : "writer") << ")";
  }
  std::cout << "); Ctrl-C to stop\n" << std::flush;
  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  srv.stop();
  std::cout << "locald serve: stopped\n";
  return 0;
}

int help_scenario(const std::string& name) {
  const Scenario& s = resolve_scenario(name, {}, {});
  std::cout << s.name << " — " << s.paper_ref << "\n  " << s.summary
            << "\n  --size: " << (s.size_help.empty() ? "unused" : s.size_help)
            << "\n  --family: "
            << (s.family_help.empty() ? "unsupported" : s.family_help)
            << "\n  --faults: "
            << (s.fault_help.empty() ? "unsupported" : s.fault_help) << "\n";
  return 0;
}

// `json` (`run --format json`, one scenario) prints the document POST
// /v1/run returns for the same (scenario, seed, size, trials); CI
// byte-compares the two. Throws what `resolve_scenario` throws.
int run_scenarios(const std::vector<std::string>& names,
                  const ScenarioOptions& base_opts, exec::ThreadPool* pool,
                  bool json) {
  bool all_ok = true;
  for (const std::string& name : names) {
    const Scenario& scenario =
        resolve_scenario(name, base_opts.family, base_opts.faults);
    // Fresh cache per scenario: memoized verdicts are keyed by algorithm
    // name, so scoping the cache to one scenario run keeps name reuse
    // across scenarios harmless.
    exec::VerdictCache cache;
    ScenarioOptions opts = base_opts;
    opts.exec.pool = pool;
    opts.exec.cache = &cache;
    if (json) {
      bool ok = false;
      std::cout << server::run_document(name, opts, &ok);
      all_ok = all_ok && ok;
      continue;
    }
    const obs::Stopwatch stopwatch;
    if (opts.format == OutputFormat::text) {
      std::cout << "=== " << scenario.name << " (" << scenario.paper_ref
                << ") ===\n\n";
    }
    // A throwing scenario counts as a mismatch but must not take down the
    // rest of a --all run.
    bool ok = false;
    try {
      obs::Span span("scenario", scenario.name);
      ok = scenario.run(opts, std::cout);
    } catch (const std::exception& e) {
      std::cerr << "[" << scenario.name << "] error: " << e.what() << "\n";
    }
    const double secs = stopwatch.elapsed_seconds();
    if (opts.format == OutputFormat::text) {
      std::cout << "[" << scenario.name << "] "
                << (ok ? "reproduced" : "MISMATCH with the paper") << " in "
                << fixed(secs, 2) << "s\n\n";
    } else {
      std::cout << "# [" << scenario.name << "] "
                << (ok ? "reproduced" : "MISMATCH") << "\n";
    }
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}

int main_impl(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    return usage(std::cerr, 2);
  }
  const std::string command = args.front();
  args.erase(args.begin());

  ScenarioOptions opts;
  std::vector<std::string> positional;
  std::vector<int> sizes;
  std::vector<int> thread_grid;         // bench sweeps it; others take one
  std::vector<std::string> families;    // --family, repeatable for bench
  std::string format;
  int port = -1;     // serve only; -1 = default
  int workers = -1;  // serve only
  int queue = -1;    // serve only
  std::string store;     // serve only; persistent verdict-store directory
  bool follower = false;  // serve only; open --store read-only
  std::string trace_out;   // run/sweep/bench/serve; Chrome trace JSON path
  std::string access_log;  // serve only; NDJSON request log path
  bool run_all = false;
  bool timing = false;
  bool canon = false;          // bench --canon
  bool families_flag = false;  // list --families
  bool faults_flag = false;    // list --faults (no selector value)
  bool seed_set = false;  // an explicit --seed 42 must still be rejectable
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto take_value = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) return std::nullopt;
      return args[++i];
    };
    if (arg == "--all") {
      run_all = true;
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "--canon") {
      canon = true;
    } else if (arg == "--families") {
      families_flag = true;
    } else if (arg == "--faults") {
      // Value-less `--faults` lists the profile registry (`locald list
      // --faults`, mirroring --families); with a selector it picks the
      // profile for run/sweep/bench.
      if (i + 1 >= args.size() ||
          (!args[i + 1].empty() && args[i + 1][0] == '-')) {
        faults_flag = true;
      } else {
        opts.faults = args[++i];
      }
    } else if (arg == "--family") {
      const auto value = take_value();
      if (!value || value->empty()) {
        std::cerr << "--family needs a selector, e.g. cycle or "
                     "torus:width=8,height=6\n";
        return 2;
      }
      families.push_back(*value);
    } else if (arg == "--port" || arg == "--workers" || arg == "--queue") {
      const auto value = take_value();
      const auto parsed = value ? parse_int(*value) : std::nullopt;
      if (!parsed || *parsed < 0 || *parsed > 65535) {
        std::cerr << arg << " needs an integer in [0, 65535]\n";
        return 2;
      }
      if (arg == "--port") {
        port = static_cast<int>(*parsed);
      } else if (arg == "--workers") {
        workers = static_cast<int>(*parsed);
      } else {
        queue = static_cast<int>(*parsed);
      }
    } else if (arg == "--store") {
      const auto value = take_value();
      if (!value || value->empty()) {
        std::cerr << "--store needs a directory path\n";
        return 2;
      }
      store = *value;
    } else if (arg == "--follower") {
      follower = true;
    } else if (arg == "--trace-out") {
      const auto value = take_value();
      if (!value || value->empty()) {
        std::cerr << "--trace-out needs a file path\n";
        return 2;
      }
      trace_out = *value;
    } else if (arg == "--access-log") {
      const auto value = take_value();
      if (!value || value->empty()) {
        std::cerr << "--access-log needs a file path\n";
        return 2;
      }
      access_log = *value;
    } else if (arg == "--seed" || arg == "--size" || arg == "--trials") {
      const auto value = take_value();
      const auto parsed = value ? parse_int(*value) : std::nullopt;
      if (!parsed || *parsed < 0) {
        std::cerr << arg << " needs a non-negative integer\n";
        return 2;
      }
      if (arg == "--seed") {
        opts.seed = static_cast<std::uint64_t>(*parsed);
        seed_set = true;
      } else if (arg == "--size") {
        opts.size = static_cast<int>(*parsed);
      } else {
        opts.trials = static_cast<int>(*parsed);
      }
    } else if (arg == "--threads" || arg == "--sizes") {
      // Both take comma-separated count lists (--threads is a single count
      // everywhere except bench, enforced after parsing). For --threads,
      // 0 means "all hardware threads".
      const auto value = take_value();
      std::string bad_item;
      std::optional<std::vector<int>> parsed;
      if (value) {
        parsed = parse_count_list(*value, &bad_item);
      }
      if (!parsed) {
        std::cerr << arg << " needs a comma-separated list of non-negative "
                  << "integers";
        if (value) {
          std::cerr << ", got `" << bad_item << "`";
        }
        std::cerr << "\n";
        return 2;
      }
      if (arg == "--sizes") {
        sizes = *parsed;
      } else {
        for (int threads : *parsed) {
          if (threads > max_threads()) {
            std::cerr << "--threads " << threads
                      << " exceeds the sane maximum " << max_threads()
                      << "; use 0 for all hardware threads\n";
            return 2;
          }
        }
        thread_grid = *parsed;
      }
    } else if (arg == "--format") {
      const auto value = take_value();
      if (!value || (*value != "text" && *value != "csv" && *value != "json")) {
        std::cerr << "--format needs `text`, `csv`, or `json`\n";
        return 2;
      }
      format = *value;
      opts.format = *value == "csv" ? OutputFormat::csv : OutputFormat::text;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return usage(std::cerr, 2);
    } else {
      positional.push_back(arg);
    }
  }

  if (command != "serve" &&
      (port != -1 || workers != -1 || queue != -1 || !store.empty() ||
       follower)) {
    std::cerr << "--port/--workers/--queue/--store/--follower are serve "
                 "options\n";
    return 2;
  }
  if (follower && store.empty()) {
    std::cerr << "--follower requires --store DIR (the shared store to "
                 "follow)\n";
    return 2;
  }
  if (command != "serve" && !access_log.empty()) {
    std::cerr << "--access-log is a serve option\n";
    return 2;
  }
  if (!trace_out.empty() && command != "run" && command != "sweep" &&
      command != "bench" && command != "serve") {
    std::cerr << "--trace-out applies to run, sweep, bench, and serve\n";
    return 2;
  }
  // Traced commands: collect spans for exactly the command's duration and
  // write the Chrome trace on the way out. The deterministic stdout
  // document is untouched — the trace is its own file.
  const auto with_trace = [&](const std::function<int()>& fn) -> int {
    if (trace_out.empty()) return fn();
    obs::tracing_start();
    int code = 2;
    try {
      code = fn();
    } catch (...) {
      std::string ignored;
      obs::tracing_stop_to_file(trace_out, &ignored);
      throw;
    }
    std::string error;
    if (!obs::tracing_stop_to_file(trace_out, &error)) {
      std::cerr << "trace: " << error << "\n";
      if (code == 0) code = 2;
    }
    return code;
  };
  if (command != "bench" && thread_grid.size() > 1) {
    std::cerr << "--threads takes a comma-separated grid only for bench\n";
    return 2;
  }
  if (command != "list" && families_flag) {
    std::cerr << "--families lists the family registry: `locald list "
                 "--families`\n";
    return 2;
  }
  if (command != "list" && faults_flag) {
    std::cerr << "--faults without a selector lists the profile registry: "
                 "`locald list --faults`\n";
    return 2;
  }
  if (command != "bench" && families.size() > 1) {
    std::cerr << "--family is repeatable only for bench\n";
    return 2;
  }
  if (command != "bench" && canon) {
    std::cerr << "--canon selects the canonicalization-bound bench grid: "
                 "`locald bench --canon`\n";
    return 2;
  }
  if ((command == "list" || command == "help") && !families.empty()) {
    std::cerr << "--family selects a workload for run/sweep/bench; to "
                 "enumerate families use `locald list --families`\n";
    return 2;
  }
  if ((command == "list" || command == "help") && !opts.faults.empty()) {
    std::cerr << "--faults with a selector applies to run/sweep/bench; to "
                 "enumerate profiles use `locald list --faults`\n";
    return 2;
  }
  const int threads = thread_grid.empty() ? 1 : thread_grid.front();
  if (!families.empty()) {
    opts.family = families.front();
  }
  // run and sweep: one execution pool for the whole command (1 = serial, no
  // pool).
  const auto with_pool = [&](const std::function<int(exec::ThreadPool*)>& fn) {
    std::optional<exec::ThreadPool> pool;
    if (threads != 1) pool.emplace(threads);
    return with_trace([&] { return fn(pool ? &*pool : nullptr); });
  };
  if (command == "list") {
    if (families_flag && faults_flag) {
      std::cerr << "--families and --faults list different registries; "
                   "pick one\n";
      return 2;
    }
    if (families_flag) return list_families(opts, format);
    if (faults_flag) return list_faults(opts, format);
    return list_scenarios(opts, format);
  }
  if (command == "help" || command == "--help" || command == "-h") {
    if (positional.empty()) {
      return usage(std::cout, 0);
    }
    return help_scenario(positional.front());
  }
  if (command == "run") {
    std::vector<std::string> names = positional;
    if (run_all) {
      for (const Scenario& s : scenario_registry()) {
        if (std::find(names.begin(), names.end(), s.name) == names.end()) {
          names.push_back(s.name);
        }
      }
    }
    if (names.empty()) {
      std::cerr << "run needs scenario names or --all\n";
      return 2;
    }
    if (!sizes.empty()) {
      std::cerr << "--sizes is a sweep option; run takes a single --size\n";
      return 2;
    }
    opts.timing = timing;
    if (format == "json") {
      if (names.size() != 1) {
        std::cerr << "run --format json takes exactly one scenario\n";
        return 2;
      }
      if (timing) {
        // The json document is the serving layer's byte-identity contract;
        // wall-clock fields have no place in it.
        std::cerr << "--timing is not available with --format json\n";
        return 2;
      }
    }
    return with_pool([&](exec::ThreadPool* pool) {
      return run_scenarios(names, opts, pool, format == "json");
    });
  }
  if (command == "serve") {
    if (!positional.empty() || run_all || timing || !sizes.empty() ||
        !format.empty() || opts.size != 0 || opts.trials != 0 || seed_set ||
        !families.empty() || !opts.faults.empty()) {
      std::cerr << "serve takes only --port, --threads, --workers, --queue, "
                   "--store, --follower, --trace-out, --access-log\n";
      return 2;
    }
    server::ServeOptions serve_opts;
    if (port != -1) serve_opts.port = port;
    serve_opts.threads = threads;
    serve_opts.store_path = store;
    serve_opts.store_follower = follower;
    serve_opts.trace_out = trace_out;
    serve_opts.access_log_path = access_log;
    if (workers != -1) {
      if (workers == 0) {
        std::cerr << "--workers must be at least 1\n";
        return 2;
      }
      if (workers > max_threads()) {
        std::cerr << "--workers " << workers << " exceeds the sane maximum "
                  << max_threads() << "\n";
        return 2;
      }
      serve_opts.workers = workers;
    }
    if (queue != -1) {
      if (queue == 0) {
        std::cerr << "--queue must be at least 1\n";
        return 2;
      }
      serve_opts.max_queue = queue;
    }
    return run_serve(serve_opts);
  }
  if (command == "sweep") {
    if (positional.size() != 1) {
      std::cerr << "sweep needs exactly one scenario name\n";
      return 2;
    }
    if (!format.empty() && format != "json") {
      std::cerr << "sweep emits json only\n";
      return 2;
    }
    if (opts.size != 0) {
      std::cerr << "--size is a run option; sweep takes a --sizes grid\n";
      return 2;
    }
    SweepOptions sweep;
    sweep.seed = opts.seed;
    sweep.sizes = sizes;
    sweep.trials = opts.trials;
    sweep.family = opts.family;
    sweep.faults = opts.faults;
    sweep.timing = timing;
    return with_pool([&](exec::ThreadPool* pool) {
      sweep.pool = pool;
      return run_sweep(positional.front(), sweep, std::cout);
    });
  }
  if (command == "bench") {
    if (!positional.empty() || run_all || !format.empty() || opts.size != 0 ||
        opts.trials != 0) {
      std::cerr << "bench takes --canon, --family (repeatable), --faults, "
                   "--sizes, --seed, --threads a,b,c, --timing\n";
      return 2;
    }
    if (canon && !families.empty()) {
      std::cerr << "--canon is a pinned grid; drop --family or --canon\n";
      return 2;
    }
    BenchOptions bench;
    bench.seed = opts.seed;
    bench.canon = canon;
    bench.families = families;
    bench.faults = opts.faults;
    bench.sizes = sizes;
    bench.thread_grid = thread_grid;
    bench.timing = timing;
    return with_trace([&] { return run_bench(bench, std::cout); });
  }
  std::cerr << "unknown command: " << command << "\n";
  return usage(std::cerr, 2);
}

}  // namespace
}  // namespace locald::cli

int main(int argc, char** argv) {
  locald::obs::anchor_uptime();
  try {
    return locald::cli::main_impl(argc, argv);
  } catch (const locald::Error& e) {
    // A rejected input the library reports, e.g. `resolve_scenario`'s
    // unknown scenario or unsupported selector: a usage error.
    std::cerr << e.what() << "\n";
    return 2;
  }
}
