#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--runs K] [--workloads a,b] [--traced]

Run from the root of a checkout. Runs every workload K times (seeds
1..K) through perfbench/run.py with the run length of BENCHMARK.json,
then prints, for each end-to-end metric, the median, the quartiles,
and the quartile spread (Q3 - Q1) / median next to the metric's bound.
A spread is "ok" when it is under a third of the bound; setup_s is
judged only by its median, so its spread is informational.

With --traced it also makes two traced runs of each workload on one
seed, prints the tracing overhead, and checks that the exact
controller counts repeat bit for bit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("ctrl.jobs_per_tick", "ctrl.fd_roundtrips_per_tick",
         "ctrl.linesearch_trials_per_tick", "ctrl.gated_share")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: output check failed" % (workload, seed))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    steady = True
    for w in names:
        values = {}
        for seed in range(1, args.runs + 1):
            res = run(w, seed, seconds, 0)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print("\n%s: %d runs x %d s" % (w, args.runs, seconds))
        print("  %-22s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            ok = spread < bounds[k] / 3 or k == "setup_s"
            steady = steady and ok
            print("  %-22s %14.4f %14.4f %14.4f %7.2f%% %5.0f%% %s" %
                  (k, med, q1, q3, 100 * spread, 100 * bounds[k],
                   "ok" if ok else "NOISY"))
            print("    runs: " + " ".join("%.6g" % v for v in vs))
        if args.traced:
            a = run(w, 1, seconds, 1)["metrics"]
            b = run(w, 1, seconds, 1)["metrics"]
            same = all(a[k]["value"] == b[k]["value"] for k in EXACT)
            steady = steady and same
            print("  trace.overhead_pct %.2f / %.2f; exact counts repeat: %s"
                  % (a["trace.overhead_pct"]["value"],
                     b["trace.overhead_pct"]["value"], same))
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
