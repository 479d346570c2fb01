#!/usr/bin/env python3
"""Steadiness tool: run every workload repeatedly and report each metric's
median and quartiles.

    python3 opbench/steady.py --runs 10 [--workloads svc_day_max,mc_sla_risk]
                              [--first-seed 1] [--seconds 10] [--out runs.json]

Run i uses seed first_seed + i; the workload order alternates between runs
(forward, then reversed) so that no workload always runs on a machine warmed
by the same neighbour. For each end-to-end metric the spread is
(Q3 - Q1) / median, with the quartiles of statistics.quantiles(values, n=4);
every end-to-end metric whose spread exceeds its bound in BENCHMARK.json is
flagged. The bounds in BENCHMARK.json are set from this tool's output. Exit
code 1 when a metric is flagged, a run fails, or the failed share differs
between runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        for line in proc.stderr.splitlines()[-5:]:
            print(f"    {line}")
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    bad = False
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            res = run_once(w, args.first_seed + i, seconds)
            if res is None:
                print(f"FAILED RUN: {w} seed {args.first_seed + i}")
                bad = True
                continue
            results[w].append(res)
            print(f"  {w} seed {args.first_seed + i}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)

    for w in workloads:
        runs = results[w]
        if not runs:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{w}: {len(runs)} runs, failed share {sorted(shares)}")
        if len(shares) > 1:
            bad = True
            print("  FLAG: failed share differs between runs")
        print(f"  {'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], None, vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  FLAG: spread above bound"
                bad = True
            elif bound is not None and spread > bound / 3:
                flag = "  (above a third of the bound)"
            print(f"  {name:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.3f} {'' if bound is None else bound:>6}{flag}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
