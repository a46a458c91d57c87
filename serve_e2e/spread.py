#!/usr/bin/env python3
"""Runs serve_e2e on several seeds and reports each metric's spread.

    python3 serve_e2e/spread.py --workload predict_hot --runs 10 [--trace 0] [--first-seed 1]

Run from the repository root. For every metric of the result line it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the interquartile range as a share of the median, next to the bound
BENCHMARK.json gives it. Metrics that read exactly the same on every run
are flagged: those are the counts a change may claim a count on.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: run reported correct=false")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {args.runs} runs")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = " (repeats exactly)" if len(set(vs)) == 1 else ""
        limit = f" bound {bound}" if bound is not None else ""
        print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{limit}{flag}")


if __name__ == "__main__":
    main()
