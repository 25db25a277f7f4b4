#!/usr/bin/env python3
"""Unit tests for bench_ledger.py.

The ledger must summarize pairs the way a reviewer reads them (median,
quartiles, pairs won in the metric's direction, an end-to-end median
held against its bound, attempted and failed runs), keep every result
line, and refuse to compare runs whose seeds, workloads or host differ.

Run directly (python3 tools/bench_ledger_test.py) or via ctest
(registered as fp_bench_ledger_selftest).
"""

import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_ledger  # noqa: E402

PROVENANCE = {"git_sha": "aaaa", "compiler": "GNU 12.2.0",
              "build_type": "Release", "sanitizer": "none",
              "fp_check": False, "nproc": 4}

BENCHMARK = {"end_to_end": [{"name": "stores_per_s", "better": "higher",
                             "bound": 0.25},
                            {"name": "setup_s", "better": "lower",
                             "bound": 0.25}],
             "per_layer": [{"name": "layer_ns", "better": "lower"}]}


def result(workload, seed, metrics, trace=False, sha="aaaa", nproc=4,
           attempted=3, failed=0):
    provenance = dict(PROVENANCE, git_sha=sha, nproc=nproc)
    return {"workload": workload, "seed": seed, "seconds": 5,
            "trace": trace, "provenance": provenance,
            "attempted": attempted, "failed": failed, "runs": {},
            "spans": {},
            "metrics": {name: {"value": value, "unit": "u"}
                        for name, value in metrics.items()}}


class LedgerTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)
        (self.dir / "parent").mkdir()
        (self.dir / "change").mkdir()
        self.benchmark = self.dir / "BENCHMARK.json"
        self.benchmark.write_text(json.dumps(BENCHMARK))

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, side, document):
        name = "%s-seed%d-trace%d.json" % (
            document["workload"], document["seed"], int(document["trace"]))
        (self.dir / side / name).write_text(json.dumps(document))

    def ledger(self):
        return bench_ledger.build_ledger(self.dir / "parent",
                                         self.dir / "change", 22,
                                         self.benchmark)

    def write_pairs(self, parent_rates, change_rates, change_sha="bbbb"):
        for seed, (before, after) in enumerate(zip(parent_rates,
                                                   change_rates)):
            self.write("parent", result("w", seed, {"stores_per_s": before,
                                                    "setup_s": 1.0,
                                                    "other": 1.0}))
            self.write("change", result("w", seed, {"stores_per_s": after,
                                                    "setup_s": 2.0,
                                                    "other": 2.0},
                                        sha=change_sha))

    def row(self, ledger, metric):
        return next(row for row in ledger["summary"]
                    if row["metric"] == metric)

    def test_medians_quartiles_and_pairs_won(self):
        self.write_pairs([1, 2, 3, 4, 5], [2, 1, 4, 5, 9])
        ledger = self.ledger()
        rate = self.row(ledger, "stores_per_s")
        self.assertEqual(rate["parent"], {"median": 3, "q1": 2, "q3": 4})
        self.assertEqual(rate["change"]["median"], 4)
        self.assertEqual(rate["pairs"], 5)
        self.assertEqual(rate["pairs_won"], 4)
        self.assertFalse(rate["beyond_parent_iqr"])
        # Lower is better for setup_s: the change lost every pair.
        self.assertEqual(self.row(ledger, "setup_s")["pairs_won"], 0)
        self.assertTrue(self.row(ledger, "setup_s")["beyond_parent_iqr"])
        # A metric BENCHMARK.json does not name has no winner.
        self.assertIsNone(self.row(ledger, "other")["pairs_won"])

    def test_end_to_end_rows_hold_the_median_against_the_bound(self):
        # stores_per_s: 20% lower, within its 0.25 bound; setup_s: twice
        # as long, past it.
        self.write_pairs([10, 10, 10], [8, 8, 8])
        ledger = self.ledger()
        rate = self.row(ledger, "stores_per_s")
        self.assertAlmostEqual(rate["worse_by"], 0.2)
        self.assertEqual(rate["bound"], 0.25)
        self.assertTrue(rate["within_bound"])
        setup = self.row(ledger, "setup_s")
        self.assertAlmostEqual(setup["worse_by"], 1.0)
        self.assertFalse(setup["within_bound"])
        # Only bounded metrics carry the check.
        self.assertNotIn("within_bound", self.row(ledger, "other"))

    def test_a_better_median_is_within_any_bound(self):
        self.write_pairs([10, 10, 10], [13, 13, 13])
        rate = self.row(self.ledger(), "stores_per_s")
        self.assertAlmostEqual(rate["worse_by"], -0.3)
        self.assertTrue(rate["within_bound"])

    def test_a_per_layer_metric_has_no_bound(self):
        self.write("parent", result("w", 0, {"layer_ns": 1.0}))
        self.write("change", result("w", 0, {"layer_ns": 5.0}))
        row = self.row(self.ledger(), "layer_ns")
        self.assertEqual(row["pairs_won"], 0)
        self.assertNotIn("within_bound", row)

    def test_a_zero_parent_median_is_out_of_bound_only_when_worse(self):
        spec = BENCHMARK["end_to_end"][1]  # setup_s, lower is better
        self.assertTrue(bench_ledger.bound_check(0, 0, spec)
                        ["within_bound"])
        self.assertFalse(bench_ledger.bound_check(0, 1, spec)
                         ["within_bound"])

    def test_totals_attempted_and_failed_runs_per_side(self):
        for seed in range(2):
            self.write("parent", result("w", seed, {"stores_per_s": 1.0},
                                        attempted=4))
            self.write("change", result("w", seed, {"stores_per_s": 1.0},
                                        attempted=5, failed=seed + 1))
        self.write("parent", result("w", 0, {"stores_per_s": 1.0},
                                    trace=True))
        self.write("change", result("w", 0, {"stores_per_s": 1.0},
                                    trace=True))
        self.assertEqual(self.ledger()["runs"], [
            {"workload": "w", "trace": 0,
             "parent": {"attempted": 8, "failed": 0},
             "change": {"attempted": 10, "failed": 3}},
            {"workload": "w", "trace": 1,
             "parent": {"attempted": 3, "failed": 0},
             "change": {"attempted": 3, "failed": 0}},
        ])

    def test_keeps_every_result_line_and_both_provenances(self):
        self.write_pairs([1, 2, 3], [4, 5, 6])
        ledger = self.ledger()
        self.assertEqual(len(ledger["parent"]["results"]), 3)
        self.assertEqual(len(ledger["change"]["results"]), 3)
        self.assertEqual(ledger["change"]["results"][2]["metrics"]
                         ["stores_per_s"], 6)
        self.assertEqual(ledger["parent"]["provenance"]["git_sha"], "aaaa")
        self.assertEqual(ledger["change"]["provenance"]["git_sha"], "bbbb")
        self.assertEqual(ledger["pr"], 22)

    def test_refuses_different_seeds(self):
        self.write_pairs([1, 2], [1, 2])
        self.write("change", result("w", 7, {"stores_per_s": 1.0}))
        with self.assertRaisesRegex(bench_ledger.LedgerError,
                                    "seeds or workloads differ"):
            self.ledger()

    def test_refuses_different_workloads(self):
        self.write("parent", result("a", 0, {"stores_per_s": 1.0}))
        self.write("change", result("b", 0, {"stores_per_s": 1.0}))
        with self.assertRaisesRegex(bench_ledger.LedgerError,
                                    "seeds or workloads differ"):
            self.ledger()

    def test_refuses_a_different_host(self):
        self.write("parent", result("w", 0, {"stores_per_s": 1.0}))
        self.write("change", result("w", 0, {"stores_per_s": 1.0},
                                    nproc=8))
        with self.assertRaisesRegex(bench_ledger.LedgerError, "host"):
            self.ledger()

    def test_refuses_an_empty_side(self):
        self.write("parent", result("w", 0, {"stores_per_s": 1.0}))
        with self.assertRaisesRegex(bench_ledger.LedgerError,
                                    "no perfbench result files"):
            self.ledger()

    def test_main_writes_the_file_or_refuses_with_exit_2(self):
        self.write_pairs([1, 2], [3, 4])
        out = self.dir / "BENCH_PR22.json"
        args = ["--parent", str(self.dir / "parent"),
                "--change", str(self.dir / "change"), "--pr", "22",
                "--benchmark", str(self.benchmark), "--out", str(out)]
        self.assertEqual(bench_ledger.main(args), 0)
        self.assertEqual(json.loads(out.read_text())["pr"], 22)
        self.write("change", result("w", 9, {"stores_per_s": 1.0}))
        out.unlink()
        self.assertEqual(bench_ledger.main(args), 2)
        self.assertFalse(out.exists())


if __name__ == "__main__":
    unittest.main()
