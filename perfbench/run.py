#!/usr/bin/env python3
"""The locald benchmark: one command for every workload.

    python3 perfbench/run.py --workload census-131k --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first run builds `locald` and the
traced layer driver (`perfbench_layers`) from source into $CARGO_TARGET_DIR
(default `.bench_build`) with perfbench/CMakeLists.txt; outputs, traces and
logs go to `.bench_out/<workload>/`.

With `--trace 0` it measures the end-to-end metrics of BENCHMARK.json against
the `locald` binary with tracing off; with `--trace 1` it produces the
per-layer metrics (layer driver, traced commands, traced server). Either way
it checks every output for correctness, prints a readable report, and prints
as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`failed / attempted` is the workload's error rate. Workloads and the reason
each exists are described in perfbench/WORKLOADS.md.
"""

import argparse
import concurrent.futures
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import traces  # noqa: E402

# Batch workloads run with --threads 2, half of the 4-core box: at 4 threads
# every busy neighbour (the benchmark's own Python included) makes a
# straggler, and repetition times spread about twice as wide.
THREADS = "2"
# Everything that evaluates the G(M, r) verifier runs on one thread: the
# verifier memoizes per-machine context in an unsynchronized map
# (src/halting/verifier.cpp), so two pool threads evaluating it at once race
# and about one serve-mix run in six ended in a segfault of `locald serve`.
# That covers fig2-gmr, promise-halting and the server, whose mix holds both.
HALTING_THREADS = "1"
SERVE_THREADS = HALTING_THREADS  # locald serve --threads 1, default --workers 4
# Process timings are the fastest sample of the run (setup_s, and per command
# for batch wall_s): on a shared virtual machine the other tenants slow a
# process by up to a third for seconds at a time, and only ever slow it, so
# the fastest of several samples is what the program itself costs.
SETUP_REPEATS = 10     # trivial-input invocations before each repetition and after the last
SERVE_LAUNCHES = 5     # server launches per serve-mix run
# Open-loop rates, about 1/3 and 2/3 of the mix's closed-loop saturation
# throughput on a 4-core x86 box (see WORKLOADS.md).
RATE_LOW = 19.0
RATE_HIGH = 38.0


class BenchError(Exception):
    pass


# --- processes ---------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def binary(name):
    return os.path.join(build_dir(), name)


def build(log_path):
    """Configures (once) and builds locald and perfbench_layers. A failed
    build is retried once from an empty build tree with half the compile
    jobs: a compiler killed for memory on a shared host, or a tree left by
    another checkout, should not fail the run."""
    bdir = build_dir()
    with open(log_path, "w") as log:
        for jobs in ("4", "2"):
            if try_build(bdir, jobs, log):
                return
            log.flush()
            shutil.rmtree(bdir, ignore_errors=True)
    with open(log_path, errors="replace") as log:
        tail = log.read()[-3000:]
    raise BenchError(f"build failed; see {log_path}, which ends:\n{tail}")


def try_build(bdir, jobs, log):
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=log, stderr=log, cwd=ROOT) != 0:
            return False
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target", "locald",
           "perfbench_layers"]
    return subprocess.call(cmd, stdout=log, stderr=log, cwd=ROOT) == 0


class Run:
    """One finished process: wall time, peak RSS, exit code, stdout."""

    def __init__(self, argv, stderr_path):
        start = time.perf_counter()
        with open(stderr_path, "ab") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    cwd=ROOT)
            self.stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = time.perf_counter() - start
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.code = proc.returncode


def host_steal():
    """(stolen, total) CPU ticks of the whole machine so far, from /proc/stat:
    time the hypervisor ran someone else while this VM's CPUs wanted to run."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def locald(args, out_dir):
    return Run([binary("locald")] + args, os.path.join(out_dir, "locald.stderr"))


class Server:
    """A `locald serve` child on an ephemeral port."""

    live = []

    def __init__(self, out_dir, store, extra=()):
        self.start = time.perf_counter()
        self.err = open(os.path.join(out_dir, "serve.stderr"), "ab")
        self.proc = subprocess.Popen(
            [binary("locald"), "serve", "--port", "0", "--threads", SERVE_THREADS,
             "--store", store, *extra],
            stdout=subprocess.PIPE, stderr=self.err, cwd=ROOT)
        Server.live.append(self)
        banner = self.proc.stdout.readline().decode()
        if "http://" not in banner:
            raise BenchError(f"locald serve did not start: {banner!r}")
        self.port = int(banner.split("http://")[1].split()[0].rsplit(":", 1)[1])
        deadline = time.perf_counter() + 30
        while not healthz_ok(self.port):
            if time.perf_counter() > deadline:
                raise BenchError("locald serve never answered /v1/healthz")
            time.sleep(0.001)
        self.setup_s = time.perf_counter() - self.start

    def stop(self):
        """SIGTERM, reap, and return the server's peak RSS in MB. Signals go
        through os.kill: Popen.send_signal would first reap a server that
        has already died, and os.wait4 below would find no child."""
        Server.live.remove(self)
        os.kill(self.proc.pid, signal.SIGTERM)
        deadline = time.perf_counter() + 20
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                os.kill(self.proc.pid, signal.SIGKILL)
                deadline = float("inf")
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.err.close()
        return usage.ru_maxrss / 1024.0

    @classmethod
    def kill_all(cls):
        for srv in list(cls.live):
            os.kill(srv.proc.pid, signal.SIGKILL)
            srv.stop()


def healthz_ok(port):
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
            s.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n"
                      b"Connection: close\r\n\r\n")
            data = b""
            while chunk := s.recv(4096):
                data += chunk
        return data.startswith(b"HTTP/1.1 200")
    except OSError:
        return False


# --- batch workloads ---------------------------------------------------------

CENSUS_FAMILIES = ["random-regular", "torus", "hypercube"]
PAPER_SCENARIOS = {
    "table1-matrix": ["table1-matrix", "--threads", THREADS],
    "fig2-gmr": ["fig2-gmr", "--size", "200", "--threads", HALTING_THREADS],
    "fig1-layered-trees": ["fig1-layered-trees", "--threads", THREADS],
}

BATCH = {
    # The census cells keep locald's default seed whatever --seed says: the
    # random-regular pairing model rejects whole pairings until one is simple
    # (acceptance ~exp(-2) at d = 3), so its build time is geometric in the
    # seed -- 2.5 s to 9 s across seeds 1-5 at 10^6 nodes -- and a varying
    # seed would measure that lottery instead of the code. The size is 2^17,
    # not 10^6: a 10^6-node cell streams its graph through memory, and its
    # wall time followed the shared host's memory traffic (up to 40 % apart
    # within minutes), while 2^17-node cells moved a few percent. Each cell
    # is its own invocation, so each gets its own fastest time.
    "census-131k": {
        "commands": lambda s: [["bench", "--family", family, "--sizes", "131072",
                                "--threads", THREADS]
                               for family in CENSUS_FAMILIES],
        "trivial": lambda s: [["bench", *(a for family in CENSUS_FAMILIES
                                          for a in ("--family", family)),
                               "--sizes", "16", "--threads", THREADS]],
    },
    "faults-torus": {
        "commands": lambda s: [["run", "fault-robustness", "--family", "torus",
                                "--size", "4096", "--faults", "chaos",
                                "--threads", THREADS, "--seed", s,
                                "--format", "json"]],
        "trivial": lambda s: [["run", "fault-robustness", "--family", "torus",
                               "--size", "16", "--faults", "chaos",
                               "--threads", THREADS, "--seed", s,
                               "--format", "json"]],
    },
    # The paper scenarios also keep locald's default seed, and --seed only
    # orders them: fig2-gmr's cost depends on its seed, and the suite took
    # 16.0 s to 17.9 s across five seeds, as wide as the host's own noise.
    # fig2-gmr materializes at most 200 fragments instead of its default
    # 400 (2.7 s on one thread; the default took 9.3 s on two), and ablation-fragments
    # (6.5 s on one thread, which it needs for the same verifier) is left
    # out, so a run holds several repetitions of the whole suite.
    "paper-suite": {
        "commands": lambda s: [["run", *PAPER_SCENARIOS[name], "--format", "json"]
                               for name in random.Random(s).sample(
                                   sorted(PAPER_SCENARIOS), len(PAPER_SCENARIOS))],
        "trivial": lambda s: [["run", "promise-halting", "--threads",
                               HALTING_THREADS, "--seed", s, "--format", "json"]],
    },
}


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failed += len(failures)
        self.reasons.extend(failures[:max(0, 5 - len(self.reasons))])


def check_document(run):
    """Operations in one batch invocation and the failed ones: exit status,
    then the document's ok/all_ok (per cell for bench)."""
    try:
        doc = json.loads(run.stdout)
    except ValueError:
        return 1, [f"exit {run.code}, stdout is not JSON"]
    cells = doc.get("cells")
    if doc.get("tool") == "locald-bench" and isinstance(cells, list):
        bad = [f"bench cell {c.get('family')} not ok" for c in cells
               if c.get("ok") is not True]
        if run.code != 0 or doc.get("all_ok") is not True:
            bad = bad or [f"bench exit {run.code}, all_ok false"]
        return max(1, len(cells)), bad
    ok = doc.get("ok", doc.get("all_ok"))
    if run.code != 0 or ok is not True:
        return 1, [f"{doc.get('scenario')}: exit {run.code}, ok={ok}"]
    return 1, []


def run_batch_pass(commands, out_dir, tally, reference=None, trace_dir=None):
    """Runs the command list once; returns (wall seconds per command, peak
    RSS MB, outputs, trace files). Outputs must match `reference` byte for
    byte when given: same seed, same binary, deterministic documents."""
    walls, rss, outputs, trace_files = [], 0.0, [], []
    for i, args in enumerate(commands):
        if trace_dir is not None:
            trace_files.append(os.path.join(trace_dir, f"command{i}.trace.json"))
            args = args + ["--trace-out", trace_files[-1]]
        run = locald(args, out_dir)
        attempted, failures = check_document(run)
        if reference is not None and run.stdout != reference[i]:
            failures = failures + [f"output of `{' '.join(args[:2])}` changed "
                                   "between repetitions"]
        tally.add(attempted, failures)
        walls.append(run.wall_s)
        rss = max(rss, run.rss_mb)
        outputs.append(run.stdout)
    return walls, rss, outputs, trace_files


def measure_batch(workload, seed, seconds, out_dir, tally, report):
    spec = BATCH[workload]
    trivial = spec["trivial"](str(seed))
    commands = spec["commands"](str(seed))
    setups, passes, rsses, reference = [], [], [], None

    def trivial_runs():
        # Spread through the run, so set-up samples the same machine as the
        # repetitions do rather than one moment at the start.
        setups.extend(run_batch_pass(trivial, out_dir, tally)[0][0]
                      for _ in range(SETUP_REPEATS))

    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        trivial_runs()
        walls, rss, outputs, _ = run_batch_pass(commands, out_dir, tally, reference)
        reference = reference or outputs
        passes.append(walls)
        rsses.append(rss)
    trivial_runs()
    fastest = [min(per_command) for per_command in zip(*passes)]
    report.append(f"repetitions {len(passes)}: wall_s "
                  + " ".join(f"{sum(w):.3f}" for w in passes)
                  + f"; median {statistics.median(map(sum, passes)):.3f}")
    report.append(f"trivial runs {len(setups)}: setup_s min {min(setups):.4f}, "
                  f"median {statistics.median(setups):.4f}, max {max(setups):.4f}")
    return {"setup_s": min(setups),
            "wall_s": sum(fastest),
            "peak_rss_mb": statistics.median(rsses)}


# --- serve-mix ----------------------------------------------------------------

def cli_args(req):
    """The CLI invocation printing the same document as `req`, or None."""
    if req.method == "GET":
        return {"/v1/scenarios": ["list", "--format", "json"],
                "/v1/families": ["list", "--families", "--format", "json"],
                "/v1/faults": ["list", "--faults", "--format", "json"]}.get(req.path)
    body = json.loads(req.body)
    args = ["--seed", str(body.get("seed", 42)), "--threads", HALTING_THREADS]
    if "family" in body:
        args += ["--family", body["family"]]
    if "fault_profile" in body:
        args += ["--faults", body["fault_profile"]]
    if req.path == "/v1/sweep":
        return ["sweep", body["scenario"], "--sizes",
                ",".join(map(str, body["sizes"]))] + args
    if "size" in body:
        args += ["--size", str(body["size"])]
    return ["run", body["scenario"], "--format", "json"] + args


def expected_bodies(out_dir):
    """Every mix request's document from the CLI, computed before any load."""
    reqs = [r for r in loadgen.every_key() if cli_args(r) is not None]
    with concurrent.futures.ThreadPoolExecutor(4) as pool:
        runs = list(pool.map(lambda r: locald(cli_args(r), out_dir), reqs))
    expected = {}
    for req, run in zip(reqs, runs):
        if run.code != 0:
            raise BenchError(f"CLI twin of {req.path} {req.body} exited {run.code}")
        expected[req.key] = run.stdout
    return expected


def fresh_store(out_dir, expected):
    """A store directory populated by an earlier, untimed server process."""
    store = os.path.join(out_dir, "store")
    shutil.rmtree(store, ignore_errors=True)
    srv = Server(out_dir, store)
    gen = loadgen.LoadGenerator(srv.port, expected, scrape=False)
    phase = gen.closed_loop("populate", [loadgen.populate_requests()], 1, 0)
    gen.close()
    srv.stop()
    if phase.failed:
        raise BenchError(f"populating the store failed: {phase.failures[:3]}")
    return store


def count_phase(tally, phase):
    tally.add(phase.sent, phase.failures)


def measure_serve(seed, seconds, out_dir, tally, report):
    expected = expected_bodies(out_dir)
    store = fresh_store(out_dir, expected)
    setups = []
    for _ in range(SERVE_LAUNCHES - 1):
        srv = Server(out_dir, store)
        setups.append(srv.setup_s)
        srv.stop()
    srv = Server(out_dir, store)
    setups.append(srv.setup_s)
    gen = loadgen.LoadGenerator(srv.port, expected)
    mix = loadgen.build_mix(seed, 12, "open")
    # Most of the run goes to the closed phase: its median round is wall_s,
    # the one gated time; the open-loop percentiles are report lines.
    phases = [gen.open_loop("low", mix, RATE_LOW, 0.2 * seconds),
              gen.open_loop("high", mix[len(mix) // 2:], RATE_HIGH, 0.2 * seconds),
              gen.closed_loop("closed", loadgen.closed_rounds(seed, 40), 3,
                              0.6 * seconds)]
    gen.close()
    rss = srv.stop()
    for phase in phases + [gen.scrapes]:
        count_phase(tally, phase)
        report.append(f"phase {phase.name}: " + json.dumps(phase.summary()))
    low, high, closed = phases
    for name, phase in (("low", low), ("high", high)):
        lat = loadgen.percentiles(phase.latency_ms)
        report.append(f"{name}.p50_ms {lat['p50']:.3f} ms")
        report.append(f"{name}.p99_ms {lat['p99']:.3f} ms "
                      f"(n={lat['n']}; highest supported percentile "
                      f"p{round(lat['supported'] * 100)})")
    report.append(f"closed.throughput_rps {closed.sent / closed.wall_s:.1f} 1/s")
    shutil.rmtree(store, ignore_errors=True)
    return {"setup_s": min(setups),
            "wall_s": statistics.median(closed.rounds_s),
            "peak_rss_mb": rss}


# --- traced run ---------------------------------------------------------------

def write_tsv(path, requests):
    with open(path, "w") as f:
        for r in requests:
            f.write(f"{r.method}\t{r.path}\t{r.body}\n")


def read_bodies(path):
    with open(path, "rb") as f:
        data = f.read()
    bodies, pos = [], 0
    while pos < len(data):
        eol = data.index(b"\n", pos)
        size = int(data[pos:eol])
        bodies.append(data[eol + 1:eol + 1 + size])
        pos = eol + 1 + size
    return bodies


def layer_driver(seed, out_dir, tally, expected, report):
    """Runs perfbench_layers; returns its metrics."""
    mix = loadgen.build_mix(seed, 1, "closed")
    write_tsv(os.path.join(out_dir, "mix.tsv"), mix)
    write_tsv(os.path.join(out_dir, "populate.tsv"), loadgen.populate_requests())
    store = os.path.join(out_dir, "layers-store")
    shutil.rmtree(store, ignore_errors=True)
    # 4 threads (nproc), so exec.census_speedup is 1 thread over 4.
    run = Run([binary("perfbench_layers"), "--seed", str(seed), "--threads", "4",
               "--trace-out", os.path.join(out_dir, "layers.trace.json"),
               "--mix", os.path.join(out_dir, "mix.tsv"),
               "--populate", os.path.join(out_dir, "populate.tsv"),
               "--store", store, "--bodies", os.path.join(out_dir, "bodies.bin")],
              os.path.join(out_dir, "layers.stderr"))
    shutil.rmtree(store, ignore_errors=True)
    if run.code != 0:
        raise BenchError(f"perfbench_layers exited {run.code}; see layers.stderr")
    doc = json.loads(run.stdout)
    bodies = read_bodies(os.path.join(out_dir, "bodies.bin"))
    failures = list(doc["checks_failed"])
    for req, body in zip(mix, bodies):
        want = expected.get(req.key)
        if want is not None and body != want:
            failures.append(f"Server::handle body differs from the CLI for {req.body}")
    tally.add(len(mix) + len(doc["metrics"]), failures)
    return doc["metrics"]


def serve_pass(seed, seconds, out_dir, tally, expected, report):
    """Closed rounds against an untraced and then a traced server (with the
    access log); returns (untraced rounds, traced rounds, trace events,
    client request seconds, wait times)."""
    rounds = {}
    closed = loadgen.closed_rounds(seed, 40)
    trace_file = os.path.join(out_dir, "serve.trace.json")
    access_log = os.path.join(out_dir, "access.log")
    for traced in (False, True):
        store = fresh_store(out_dir, expected)
        extra = []
        if traced:
            if os.path.exists(access_log):
                os.remove(access_log)
            extra = ["--trace-out", trace_file, "--access-log", access_log]
        srv = Server(out_dir, store, extra)
        gen = loadgen.LoadGenerator(srv.port, expected, scrape=False)
        phase = gen.closed_loop("traced" if traced else "untraced", closed, 3,
                                seconds / 4)
        gen.close()
        srv.stop()
        shutil.rmtree(store, ignore_errors=True)
        count_phase(tally, phase)
        rounds[traced] = phase.rounds_s
    with open(access_log) as f:
        log = [json.loads(line) for line in f if line.strip()]
    waits, unmatched = gen.wait_times_ms(log)
    if unmatched:
        report.append(f"access-log matching: {unmatched} requests unmatched")
    client_s = sum(done - sent for conn in gen.conns for jobs in conn.history
                   for (_, _, sent, done) in jobs)
    return rounds[False], rounds[True], traces.load(trace_file), client_s, waits


def batch_trace(workload, seed, seconds, out_dir, tally, report):
    """Untraced/traced pairs of the workload's commands; returns
    (overhead share, unattributed share)."""
    commands = BATCH[workload]["commands"](str(seed))
    plain, traced, covered, wall = [], [], 0.0, 0.0
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(sum(run_batch_pass(commands, out_dir, tally)[0]))
        t_walls, _, _, files = run_batch_pass(commands, out_dir, tally,
                                              trace_dir=out_dir)
        t_wall = sum(t_walls)
        traced.append(t_wall)
        events = [traces.load(f) for f in files]
        covered += sum(traces.layer_cover_us(e) for e in events) / 1e6
        wall += t_wall
    self_us = {}
    for evs in events:
        for name, us in traces.self_times_us(evs).items():
            self_us[name] = self_us.get(name, 0) + us
    report.append("self time of the last traced pass (ms): " + json.dumps(
        {k: round(v / 1e3, 1) for k, v in sorted(self_us.items(),
                                                 key=lambda kv: -kv[1])}))
    for evs in events:
        for cell in (e for e in evs if e["name"] == "bench-cell"):
            lo, hi = cell["ts"], cell["ts"] + cell["dur"]
            share = 1 - traces.layer_cover_us(evs, lo, hi) / cell["dur"]
            report.append(f"bench cell {cell['args'].get('detail')}: "
                          f"{cell['dur'] / 1e3:.1f} ms, "
                          f"{share:.1%} outside every layer span")
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    return overhead, 1 - covered / wall


def measure_trace(workload, seed, seconds, out_dir, tally, report):
    expected = expected_bodies(out_dir)
    metrics = layer_driver(seed, out_dir, tally, expected, report)
    plain, traced, events, client_s, waits = serve_pass(
        seed, seconds, out_dir, tally, expected, report)
    ordered = sorted(waits) or [0.0]
    metrics["server.wait_ms.p50"] = ordered[len(ordered) // 2]
    metrics["server.wait_ms.p99"] = ordered[min(len(ordered) - 1,
                                                int(0.99 * len(ordered)))]
    if workload == "serve-mix":
        metrics["trace_overhead_share"] = (statistics.median(traced)
                                           / statistics.median(plain) - 1)
        handled_s = sum(e["dur"] for e in events if e["name"] == "http-request") / 1e6
        metrics["unattributed_share"] = 1 - handled_s / client_s
    else:
        overhead, unattributed = batch_trace(workload, seed, seconds, out_dir,
                                             tally, report)
        metrics["trace_overhead_share"] = overhead
        metrics["unattributed_share"] = unattributed
    return metrics


# --- entry point --------------------------------------------------------------

def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    entries = bench["per_layer" if trace else "end_to_end"]
    return ({e["name"]: e["unit"] for e in entries},
            [w["name"] for w in bench["workloads"]])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A parent that ignores SIGCHLD would have the children reaped before
    # os.wait4 can collect their resource usage.
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)

    units, workloads = declared(args.trace)
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload}; one of {workloads}")
    out_dir = os.path.join(ROOT, ".bench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    build(os.path.join(out_dir, "build.log"))

    tally, report = Tally(), []
    # locald takes seeds in [0, 2^63); any integer maps into that range.
    seed, seconds = args.seed % (1 << 31), args.seconds
    steal_before = host_steal()
    if args.trace:
        values = measure_trace(args.workload, seed, seconds, out_dir, tally, report)
    elif args.workload == "serve-mix":
        values = measure_serve(seed, seconds, out_dir, tally, report)
    else:
        values = measure_batch(args.workload, seed, seconds, out_dir, tally, report)

    stolen, total = (b - a for a, b in zip(steal_before, host_steal()))
    report.append(f"host steal during the run: {stolen / max(1, total):.1%} of CPU "
                  "time (timings inflate with it)")
    # Self-check: the printed metrics are exactly the declared ones.
    if set(values) != set(units):
        raise BenchError("metrics printed and declared differ: "
                         f"{sorted(set(values) ^ set(units))}")
    report.append(f"error_rate {tally.failed / max(1, tally.attempted):.6f} "
                  f"({tally.failed} of {tally.attempted} operations failed)")
    for reason in tally.reasons:
        report.append(f"failure: {reason}")
    for name in units:
        report.append(f"{name} {values[name]:.6g} {units[name]}")
    result = {"correct": tally.failed == 0, "attempted": max(1, tally.attempted),
              "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    with open(os.path.join(out_dir, f"metrics.trace{args.trace}.json"), "w") as f:
        json.dump({"report": report, "result": result}, f, indent=2)
    print("\n".join(report))
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
    finally:
        Server.kill_all()
