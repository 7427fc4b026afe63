#!/usr/bin/env python3
"""Fixture tests for scripts/ab.py, the paired A/B runner.

Covers the paired statistics (quantiles, IQR, median ratio, wins in the
metric's direction, the beyond-base-IQR rule), the alternation of which
side runs first, flattening of perfbench results and bench records, a
full run of the tool over two fixture checkouts with a fake command
(the warm-up runs, A/B plus the A/A control and the --json dump), and
the base worktree checkout in a throwaway git repository.

Registered with ctest as ``ab_test``; also runnable directly:
``python3 scripts/ab_test.py``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

# Import the tool under test from beside this file, without leaving a
# bytecode cache in the source tree.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

# A fake benchmark: prints a perfbench-shaped result whose latency comes
# from value.txt in the checkout it runs in.
FAKE_BENCH = """
import json
with open("value.txt") as f:
    v = float(f.read())
print("some progress line")
print(json.dumps({"correct": True, "metrics": {
    "latency_p50_ms": {"value": v, "unit": "ms"},
    "throughput_rps": {"value": 500.0, "unit": "1/s"}}}))
"""


class StatsTest(unittest.TestCase):
    def test_quantiles_and_iqr(self):
        xs = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(ab.quantile(xs, 0.5), 3.0)
        self.assertEqual(ab.quantile(xs, 0.25), 2.0)
        self.assertEqual(ab.iqr(xs), 2.0)
        self.assertEqual(ab.quantile([1.0, 2.0], 0.5), 1.5)
        self.assertEqual(ab.iqr([7.0]), 0.0)

    def test_sides_alternate(self):
        self.assertEqual(ab.side_order(0), ("base", "change"))
        self.assertEqual(ab.side_order(1), ("change", "base"))
        firsts = [ab.side_order(p)[0] for p in range(10)]
        self.assertEqual(firsts.count("base"), 5)

    def test_direction_from_spec_then_name(self):
        spec = {"index.query_us": "lower", "quality": "higher"}
        self.assertTrue(ab.higher_is_better("quality", spec))
        self.assertFalse(ab.higher_is_better("index.query_us", spec))
        self.assertTrue(ab.higher_is_better("throughput_rps", {}))
        self.assertFalse(ab.higher_is_better("latency_p50_ms", {}))
        self.assertTrue(ab.higher_is_better(
            "ann_query_batch[k=10].recall_at_k", {}))

    def test_summary_counts_wins_in_the_metric_direction(self):
        runs = [{"base": {"lat": b, "rps": 100.0},
                 "change": {"lat": c, "rps": 110.0}}
                for b, c in [(1.0, 0.9), (1.1, 0.95), (1.0, 1.05),
                             (0.98, 0.9)]]
        rows = {r["metric"]: r for r in ab.summarize(runs, {"rps": "higher"})}
        self.assertEqual(rows["lat"]["wins"], 3)
        self.assertEqual(rows["lat"]["pairs"], 4)
        self.assertEqual(rows["rps"]["wins"], 4)
        self.assertAlmostEqual(rows["rps"]["ratio_median"], 1.1)
        self.assertEqual(rows["rps"]["ratio_iqr"], 0.0)
        self.assertTrue(rows["rps"]["beyond_base_iqr"])
        # Medians 0.9975 vs 0.925: apart by more than the base IQR.
        self.assertTrue(rows["lat"]["beyond_base_iqr"])

    def test_identical_sides_win_nothing(self):
        runs = [{"base": {"q": 0.9}, "change": {"q": 0.9}}] * 3
        row = ab.summarize(runs, {})[0]
        self.assertEqual(row["wins"], 0)
        self.assertEqual(row["ratio_median"], 1.0)
        self.assertFalse(row["beyond_base_iqr"])

    def test_flatten_perfbench_and_records(self):
        pb = {"correct": True, "metrics": {"quality": {"value": 0.5},
                                           "setup_s": {"value": 2}}}
        self.assertEqual(ab.flatten(pb), {"quality": 0.5, "setup_s": 2.0})
        recs = [{"bench": "ann_ivf_query_single", "storage": "fp32",
                 "n_items": 10000, "seconds": 3e-5, "recall_at_k": 1.0,
                 "allocs_per_call": 0, "tier": "avx2"}]
        flat = ab.flatten(recs)
        self.assertEqual(
            flat["ann_ivf_query_single[n_items=10000,storage=fp32].seconds"],
            3e-5)
        self.assertEqual(len(flat), 3)  # tier is metadata, not a metric


class EndToEndTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="ab_test_")
        self.dir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def checkout(self, name, value):
        root = os.path.join(self.dir, name)
        os.mkdir(root)
        with open(os.path.join(root, "value.txt"), "w") as f:
            f.write(str(value))
        with open(os.path.join(root, "fake_bench.py"), "w") as f:
            f.write(FAKE_BENCH)
        return root

    def test_pairs_aa_control_and_json_dump(self):
        base = self.checkout("base", 2.0)
        change = self.checkout("change", 1.5)
        dump = os.path.join(self.dir, "runs.json")
        out = io.StringIO()
        calls = []
        run_once = ab.run_once

        def counting_run_once(root, args):
            calls.append(root)
            return run_once(root, args)

        with mock.patch.object(ab, "run_once", counting_run_once), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = ab.main(["--base-dir", base, "--change-dir", change,
                          "--pairs", "3", "--aa", "--json", dump, "--",
                          sys.executable, "fake_bench.py"])
        self.assertEqual(rc, 0)
        # One warm-up per side, then 3 A/B pairs and 3 A/A pairs.
        self.assertEqual(calls[:2], [change, base])
        self.assertEqual(len(calls), 2 + 2 * 3 + 2 * 3)
        text = out.getvalue()
        self.assertIn("== A/B:", text)
        self.assertIn("== A/A control:", text)
        with open(dump) as f:
            report = json.load(f)
        self.assertEqual(len(report["runs"]), 3)
        self.assertEqual(len(report["aa_runs"]), 3)
        ab_rows = {r["metric"]: r for r in ab.summarize(report["runs"], {})}
        self.assertEqual(ab_rows["latency_p50_ms"]["wins"], 3)
        self.assertAlmostEqual(ab_rows["latency_p50_ms"]["ratio_median"],
                               0.75)
        aa_rows = {r["metric"]: r for r in ab.summarize(report["aa_runs"],
                                                        {})}
        self.assertEqual(aa_rows["latency_p50_ms"]["ratio_median"], 1.0)
        self.assertEqual(aa_rows["latency_p50_ms"]["wins"], 0)

    def test_command_without_json_fails(self):
        base = self.checkout("base", 1.0)
        with self.assertRaises(ValueError), \
                contextlib.redirect_stderr(io.StringIO()):
            ab.main(["--base-dir", base, "--change-dir", base,
                     "--pairs", "1", "--",
                     sys.executable, "-c", "print('not json')"])

    def test_needs_exactly_one_command_kind(self):
        with self.assertRaises(SystemExit), \
                contextlib.redirect_stderr(io.StringIO()):
            ab.main(["--pairs", "1"])

    def test_base_checkout_is_a_detached_worktree(self):
        repo = os.path.join(self.dir, "repo")
        os.mkdir(repo)
        env = dict(os.environ, GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@t",
                   GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@t")

        def git(*args):
            subprocess.run(["git", "-C", repo, *args], check=True, env=env,
                           capture_output=True)

        git("init", "-q")
        with open(os.path.join(repo, "value.txt"), "w") as f:
            f.write("1")
        git("add", "value.txt")
        git("commit", "-q", "-m", "one")
        with open(os.path.join(repo, "value.txt"), "w") as f:
            f.write("2")
        git("commit", "-q", "-am", "two")
        work = os.path.join(self.dir, "work")
        os.mkdir(work)
        with contextlib.redirect_stderr(io.StringIO()):
            path = ab.checkout_base("HEAD~1", work, repo=repo)
            again = ab.checkout_base("HEAD~1", work, repo=repo)
        self.assertEqual(path, again)
        self.assertTrue(path.startswith(work))
        with open(os.path.join(path, "value.txt")) as f:
            self.assertEqual(f.read(), "1")


if __name__ == "__main__":
    unittest.main()
