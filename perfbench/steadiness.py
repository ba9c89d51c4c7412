#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs on the same commit.

    python3 perfbench/steadiness.py [--baseline perfbench/BASELINE.json]

Each set runs every workload of BENCHMARK.json 10 times for its
`run_seconds`, each run with its own seed (seeds 1-10, then 11-20),
interleaving workloads so slow drifts of the machine hit all of them alike.
For every end-to-end metric it reports each set's median and quartiles, the
spread (quartile distance over the median) and the drift of the second
median from the first, and checks them against the metric's bound from
BENCHMARK.json: the spread must stay within the bound (the target is a third
of it) and the drift, in the worse
direction, within the bound. With --baseline both sets are written there as
the in-tree baseline. Exits 1 when a check fails or a run reports a
failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n"
                         f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline")
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets, failures = [], 0
    for s in range(2):
        values = {w: {m: [] for m in metrics} for w in workloads}
        for i in range(RUNS):
            seed = FIRST_SEED + s * RUNS + i
            for w in workloads:
                result = run_once(w, seed, seconds)
                failures += result["failed"] + (not result["correct"])
                for m in metrics:
                    values[w][m].append(result["metrics"][m]["value"])
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: " + ", ".join(
                    f"{m}={result['metrics'][m]['value']:.4g}" for m in metrics),
                      flush=True)
        sets.append({w: {m: summarize(v) for m, v in per.items()}
                     for w, per in values.items()})

    ok = failures == 0
    report = {}
    print(f"\n{'workload':<14} {'metric':<12} {'median 1':>10} {'median 2':>10} "
          f"{'spread 1':>9} {'spread 2':>9} {'drift':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m, spec in metrics.items():
            a, b = sets[0][w][m], sets[1][w][m]
            sign = 1 if spec["better"] == "lower" else -1
            drift = sign * (b["median"] - a["median"]) / a["median"]
            bound = spec["bound"]
            checks = [drift <= bound, a["spread"] <= bound, b["spread"] <= bound]
            steady = max(a["spread"], b["spread"]) <= bound / 3
            verdict = ("ok" if steady else "within bound") if all(checks) else "FAIL"
            ok = ok and all(checks)
            report.setdefault(w, {})[m] = {"sets": [a, b], "drift": drift,
                                           "bound": bound, "verdict": verdict}
            print(f"{w:<14} {m:<12} {a['median']:>10.4g} {b['median']:>10.4g} "
                  f"{a['spread']:>9.1%} {b['spread']:>9.1%} {drift:>7.1%} "
                  f"{bound:>6.0%}  {verdict}")
    print(f"\nfailed operations across all runs: {failures}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steadiness.json"), "w") as f:
        json.dump(report, f, indent=2)
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump({"runs_per_set": RUNS, "run_seconds": seconds,
                       "seeds": [FIRST_SEED, FIRST_SEED + 2 * RUNS - 1],
                       "sets": sets}, f, indent=2)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
