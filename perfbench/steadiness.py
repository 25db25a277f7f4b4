#!/usr/bin/env python3
"""Steadiness check: run the benchmark over several seeds per workload and
compare each end-to-end metric's spread with its bound in BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--seeds 1-10] [--workloads a,b]
                                    [--seconds N]

The spread of a metric is the distance between the first and third
quartile of its per-seed values (statistics.quantiles, n=4) as a share
of their median. A metric is steady when its spread is below a third of
its bound. Exits 1 when a run fails, reports a failed check, or a spread
exceeds its bound. Run it twice and compare the medians as well.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return [str(s) for s in range(int(lo), int(hi) + 1)]
    return text.split(",")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", default=str(spec["run_seconds"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", seed,
                                     "--seconds", args.seconds, "--trace", "0"]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if run.returncode != 0:
                print(f"{workload} seed {seed}: exit {run.returncode}\n"
                      f"{run.stderr}")
                ok = False
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} runs failed")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload} ({len(args.seeds)} seeds)")
        for name, bound in bounds.items():
            v = values[name]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            if spread > bound:
                ok = False
            print(f"  {name:18s} median {med:<14.6g} spread {spread:.4f} "
                  f"bound {bound}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
