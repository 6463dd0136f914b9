#!/usr/bin/env python3
"""Steadiness report: how much each end-to-end metric spreads across runs.

    python3 zbench/steadiness.py [--workloads a,b] [--runs 10] [--sets 1]
                                 [--first-seed 1] [--seconds S]

Runs every chosen workload --runs times, each with its own seed, through
zbench/run.py with tracing off, and prints per end-to-end metric the
median, the quartiles (Python's statistics.quantiles(n=4)) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  A spread
is flagged when it exceeds a third of its bound.  With --sets 2 or more,
whole sets are repeated and each later set's median is compared with the
first set's; a shift worse than the bound is flagged.

It also prints the evidence that every run has the same op mix: timed ops
are whole rounds, the smallest op in milliseconds, and how many ops lie
beyond p90; and the host probe (reference kernel time, 2-thread scale) at
the start and end of each run, so host drift shows next to the spread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d):\n%s" % (workload, seed, out.stderr))
    info = {}
    for line in lines[:-1]:
        if line.startswith("{"):
            info.update(json.loads(line))
    return json.loads(lines[-1]), info


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report_set(workload, results, bounds):
    print("\n== %s: %d runs" % (workload, len(results)))
    ok = all(r["correct"] and r["failed"] == 0 for r, _ in results)
    print("   correct on every run: %s; attempted %s; failed %s" % (
        ok, [r["attempted"] for r, _ in results],
        [r["failed"] for r, _ in results]))
    runs = [i["run"] for _, i in results]
    whole = all(r["timed_ops"] % r["ops_per_round"] == 0 for r in runs)
    print("   op mix: %d ops per round, whole rounds only: %s; smallest op "
          "%.3f ms; ops beyond p90 per run: min %d" % (
              runs[0]["ops_per_round"], whole,
              min(r["op_ms_min"] for r in runs),
              min(r["ops_beyond_p90"] for r in runs)))
    hosts = [i["host"] for _, i in results]
    refs = [h["ref_ms"][k] for h in hosts for k in ("start", "end")]
    scales = [h["scale_2t"][k] for h in hosts for k in ("start", "end")]
    print("   host probe: ref_ms %.1f..%.1f (median %.1f); scale_2t "
          "%.2f..%.2f (median %.2f)" % (min(refs), max(refs),
                                        statistics.median(refs), min(scales),
                                        max(scales), statistics.median(scales)))
    names = list(results[0][0]["metrics"])
    for (r, i), run in zip(results, runs):
        print("   seed %-4d %s | ref_ms %.0f/%.0f" % (
            run["seed"], " ".join("%s=%.6g" % (n, r["metrics"][n]["value"])
                                  for n in names),
            i["host"]["ref_ms"]["start"], i["host"]["ref_ms"]["end"]))
    medians = {}
    print("   %-24s %14s %14s %14s %8s %7s" % (
        "metric", "q1", "median", "q3", "spread", "bound"))
    for name in names:
        vals = [r["metrics"][name]["value"] for r, _ in results]
        q1, q2, q3 = quartiles(vals)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        flag = ""
        if spread > bounds[name] / 3:
            flag = "  <-- above bound/3"
        print("   %-24s %14.6g %14.6g %14.6g %7.1f%% %6.0f%%%s" % (
            name, q1, q2, q3, spread * 100, bounds[name] * 100, flag))
        medians[name] = q2
    return medians


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            seeds = range(args.first_seed + s * args.runs,
                          args.first_seed + (s + 1) * args.runs)
            results = [run_once(workload, seed, args.seconds)
                       for seed in seeds]
            sets.append(report_set(workload, results, bounds))
        for s in range(1, len(sets)):
            print("   set %d vs set 1 (median change, worse is +):" % (s + 1))
            for name, m0 in sets[0].items():
                m1 = sets[s][name]
                worse = (m1 - m0) / m0 if m0 else 0.0
                if better[name] == "higher":
                    worse = -worse
                flag = ""
                if worse > bounds[name]:
                    flag = "  <-- worse than bound"
                print("     %-24s %+7.1f%%%s" % (name, worse * 100, flag))


if __name__ == "__main__":
    main()
