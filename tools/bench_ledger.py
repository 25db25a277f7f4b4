#!/usr/bin/env python3
"""Assemble a perf ledger entry from parent and change perfbench runs.

A performance change is measured by running perfbench (see
perfbench/README.md) on the parent commit and on the change, on the
same host, with the same seeds and workloads, each side with its own
`--out` directory. This tool reads the result files of both
directories and writes one ledger file, BENCH_PR<n>.json, holding:

  - each side's provenance (git SHA, compiler, build type, sanitizer,
    FP_CHECK, nproc), taken from its result files;
  - every result line: workload, seed, trace mode, budget, attempted
    and failed runs, and every metric value;
  - for each (workload, trace mode, metric): both sides' median and
    quartiles, the number of (workload, seed) pairs, how many of them
    the change won, and whether the medians differ by more than the
    parent's interquartile range;
  - for each end-to-end metric with a regression bound, also how much
    worse the change's median is than the parent's, as a fraction of
    the parent's median (negative when it is better), and whether that
    stays within the bound;
  - for each (workload, trace mode): both sides' totals of attempted
    and failed runs.

A pair is won when the change's value is strictly better in the
metric's direction, which comes from BENCHMARK.json ("better": higher
or lower); a metric BENCHMARK.json does not name has no winner. The
bounds come from BENCHMARK.json too ("bound" of an end_to_end metric);
against a parent median of 0, any change for the worse is out of bound.
Quartiles interpolate linearly between ranks (statistics.quantiles,
inclusive method).

The tool refuses (exit 2, nothing written) when either side has no
result files, when the two sides' (workload, seed, trace mode) sets
differ, or when the host differs: every provenance field except the
git SHA must be the same in every file of both sides.

Usage:
    bench_ledger.py --parent DIR --change DIR --pr N
                    [--benchmark BENCHMARK.json] [--out FILE]

--out defaults to BENCH_PR<N>.json at the repository root. Run the
self-test with python3 tools/bench_ledger_test.py (ctest
fp_bench_ledger_selftest).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class LedgerError(Exception):
    """The two sides cannot be compared; nothing is written."""


def load_side(directory):
    """Every perfbench result file in @p directory, keyed by
    (workload, seed, trace)."""
    results = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        document = json.loads(path.read_text())
        if "workload" not in document or "metrics" not in document:
            continue
        key = (document["workload"], document["seed"],
               bool(document["trace"]))
        if key in results:
            raise LedgerError("%s: a second result for %s" % (path, key))
        results[key] = document
    if not results:
        raise LedgerError("no perfbench result files in %s" % directory)
    return results


def host_of(document):
    """The provenance fields that describe the host and the build."""
    provenance = dict(document.get("provenance", {}))
    provenance.pop("git_sha", None)
    return provenance


def side_provenance(results, side):
    """The one provenance all of a side's files share."""
    provenances = {json.dumps(doc.get("provenance", {}), sort_keys=True)
                   for doc in results.values()}
    if len(provenances) != 1:
        raise LedgerError("the %s results come from %d different builds"
                          % (side, len(provenances)))
    return json.loads(provenances.pop())


def quartiles(values):
    """(first quartile, median, third quartile) of @p values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def metric_specs(benchmark):
    """metric name -> its BENCHMARK.json entry ("better", and "bound"
    for an end-to-end metric)."""
    spec = json.loads(Path(benchmark).read_text())
    return {metric["name"]: metric
            for group in ("end_to_end", "per_layer")
            for metric in spec.get(group, [])}


def bound_check(before, after, spec):
    """How much worse the change's median @p after is than the parent's
    @p before in the metric's direction, as a fraction of @p before
    (None when @p before is 0), and whether that is within its bound."""
    worse = before - after if spec["better"] == "higher" else after - before
    fraction = worse / abs(before) if before != 0 else None
    within = worse <= 0 if fraction is None else fraction <= spec["bound"]
    return {"worse_by": fraction, "bound": spec["bound"],
            "within_bound": within}


def summarize(parent, change, specs):
    """One summary row per (workload, trace, metric)."""
    rows = []
    groups = sorted({(workload, trace) for workload, _, trace in parent})
    for workload, trace in groups:
        seeds = sorted(seed for w, seed, t in parent
                       if (w, t) == (workload, trace))
        names = sorted(parent[(workload, seeds[0], trace)]["metrics"])
        for name in names:
            before = [parent[(workload, s, trace)]["metrics"][name]["value"]
                      for s in seeds]
            after = [change[(workload, s, trace)]["metrics"]
                     .get(name, {}).get("value") for s in seeds]
            if any(value is None for value in after):
                raise LedgerError("the change has no %s for %s"
                                  % (name, workload))
            spec = specs.get(name, {})
            direction = spec.get("better")
            won = None
            if direction == "higher":
                won = sum(a > b for a, b in zip(after, before))
            elif direction == "lower":
                won = sum(a < b for a, b in zip(after, before))
            p_q1, p_median, p_q3 = quartiles(before)
            c_q1, c_median, c_q3 = quartiles(after)
            row = {
                "workload": workload,
                "trace": int(trace),
                "metric": name,
                "unit": parent[(workload, seeds[0], trace)]["metrics"]
                [name].get("unit"),
                "better": direction,
                "parent": {"median": p_median, "q1": p_q1, "q3": p_q3},
                "change": {"median": c_median, "q1": c_q1, "q3": c_q3},
                "pairs": len(seeds),
                "pairs_won": won,
                "beyond_parent_iqr":
                    abs(c_median - p_median) > (p_q3 - p_q1),
            }
            if "bound" in spec:
                row.update(bound_check(p_median, c_median, spec))
            rows.append(row)
    return rows


def run_totals(parent, change):
    """Both sides' attempted and failed runs per (workload, trace)."""
    totals = []
    for workload, trace in sorted({(w, t) for w, _, t in parent}):
        row = {"workload": workload, "trace": int(trace)}
        for side, results in (("parent", parent), ("change", change)):
            documents = [doc for (w, _, t), doc in results.items()
                         if (w, t) == (workload, trace)]
            row[side] = {
                "attempted": sum(doc.get("attempted") or 0
                                 for doc in documents),
                "failed": sum(doc.get("failed") or 0 for doc in documents),
            }
        totals.append(row)
    return totals


def result_lines(results):
    """The result lines of one side, in (workload, trace, seed) order."""
    lines = []
    for key in sorted(results, key=lambda k: (k[0], k[2], k[1])):
        document = results[key]
        lines.append({
            "workload": document["workload"],
            "seed": document["seed"],
            "trace": int(bool(document["trace"])),
            "seconds": document.get("seconds"),
            "attempted": document.get("attempted"),
            "failed": document.get("failed"),
            "metrics": {name: metric["value"] for name, metric
                        in sorted(document["metrics"].items())},
        })
    return lines


def build_ledger(parent_dir, change_dir, pr, benchmark):
    parent = load_side(parent_dir)
    change = load_side(change_dir)
    if set(parent) != set(change):
        only_parent = sorted(set(parent) - set(change))
        only_change = sorted(set(change) - set(parent))
        raise LedgerError("the seeds or workloads differ: only the parent "
                          "has %s, only the change has %s"
                          % (only_parent, only_change))
    hosts = {json.dumps(host_of(doc), sort_keys=True)
             for doc in list(parent.values()) + list(change.values())}
    if len(hosts) != 1:
        raise LedgerError("the host or build differs between the runs: %s"
                          % sorted(hosts))
    return {
        "pr": pr,
        "parent": {"provenance": side_provenance(parent, "parent"),
                   "results": result_lines(parent)},
        "change": {"provenance": side_provenance(change, "change"),
                   "results": result_lines(change)},
        "summary": summarize(parent, change, metric_specs(benchmark)),
        "runs": run_totals(parent, change),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Assemble BENCH_PR<n>.json from perfbench --out "
                    "directories of the parent and the change.")
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pr", required=True, type=int)
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    try:
        ledger = build_ledger(args.parent, args.change, args.pr,
                              args.benchmark)
    except LedgerError as error:
        print("bench_ledger: refused: %s" % error, file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else ROOT / ("BENCH_PR%d.json" % args.pr)
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    print("bench_ledger: wrote %s (%d result lines per side, %d summary "
          "rows)" % (out, len(ledger["parent"]["results"]),
                     len(ledger["summary"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
