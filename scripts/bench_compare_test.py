#!/usr/bin/env python3
"""Fixture tests for scripts/bench_compare.py.

Runs the comparator as a subprocess against small synthetic bench JSON
files and asserts on exit status and output - the same way CI invokes
it. Covers the degenerate-input contract (empty file, invalid JSON,
all-zero seconds must FAIL cleanly with no traceback), the strict-band
semantics (regression fails, uniform machine shift passes, missing
strict baseline fails), the zero-allocation gate on every series, and
the tier metadata rules (tier is not identity; a tier change downgrades
the strict seconds band to warn).

Registered with ctest as ``bench_compare_test``; also runnable
directly: ``python3 scripts/bench_compare_test.py``.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")


def strict_record(seconds, shape="128x768x768", tier=None, **extra):
    r = {"bench": "kernels_gemm", "shape": shape, "kernel": "micro",
         "num_threads": 1, "seconds": seconds, "matches_reference": True}
    if tier is not None:
        r["tier"] = tier
    r.update(extra)
    return r


def ann_record(recall, nprobe=8, seconds=0.05, **extra):
    r = {"bench": "ann_query_batch", "n_items": 25000, "n_queries": 1000,
         "dim": 64, "k": 10, "nprobe": nprobe, "num_cells": 159,
         "seconds": seconds, "speedup_vs_exact": 10.0, "recall_at_k": recall}
    r.update(extra)
    return r


def serving_record(qps, window_us=100, p50=200.0, p99=900.0, seconds=0.2,
                   **extra):
    r = {"bench": "serving_open_loop", "clients": 8, "requests": 2000,
         "dim": 256, "max_batch": 64, "window_us": window_us,
         "offered_qps": qps * 1.05, "seconds": seconds, "qps": qps,
         "p50_us": p50, "p99_us": p99, "mean_batch": 4.0,
         "identical_to_serial": True}
    r.update(extra)
    return r


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="bench_compare_test_")
        self.dir = self._tmp.name
        self.baseline_dir = os.path.join(self.dir, "baseline")
        os.mkdir(self.baseline_dir)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, relpath, payload):
        path = os.path.join(self.dir, relpath)
        with open(path, "w") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return path

    def run_compare(self, fresh_path):
        return subprocess.run(
            [sys.executable, SCRIPT, "--baseline-dir", self.baseline_dir,
             fresh_path],
            capture_output=True, text=True, cwd=self.dir,
            env={**os.environ, "BENCH_COMPARE_WARN_ONLY": ""})

    def assert_clean(self, proc):
        """No python traceback regardless of exit status."""
        self.assertNotIn("Traceback", proc.stdout + proc.stderr,
                         msg=proc.stdout + proc.stderr)

    # ---- healthy comparisons ------------------------------------------

    def test_identical_series_passes(self):
        records = [strict_record(0.10), strict_record(0.02, shape="64x64x64")]
        self.write("baseline/BENCH_k.json", records)
        fresh = self.write("BENCH_k.json", records)
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)
        self.assertIn("within band", proc.stdout)

    def test_uniform_machine_shift_passes(self):
        base = [strict_record(0.10), strict_record(0.20, shape="a"),
                strict_record(0.30, shape="b")]
        self.write("baseline/BENCH_k.json", base)
        fresh = self.write("BENCH_k.json",
                           [dict(r, seconds=r["seconds"] * 2.0) for r in base])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)

    def test_single_record_regression_fails(self):
        base = [strict_record(0.10), strict_record(0.20, shape="a"),
                strict_record(0.30, shape="b")]
        self.write("baseline/BENCH_k.json", base)
        slow = [dict(r) for r in base]
        slow[0]["seconds"] = 0.50  # 5x while peers hold
        fresh = self.write("BENCH_k.json", slow)
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 1, msg=proc.stdout)
        self.assertIn("strict band", proc.stdout)

    # ---- degenerate inputs must FAIL cleanly --------------------------

    def test_empty_fresh_file_fails_without_traceback(self):
        self.write("baseline/BENCH_k.json", [strict_record(0.10)])
        fresh = self.write("BENCH_k.json", "")
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 1, msg=proc.stdout)
        self.assertIn("FAIL", proc.stdout)

    def test_empty_record_list_fails(self):
        self.write("baseline/BENCH_k.json", [strict_record(0.10)])
        fresh = self.write("BENCH_k.json", [])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 1, msg=proc.stdout)
        self.assertIn("empty series", proc.stdout)

    def test_invalid_json_baseline_fails_without_traceback(self):
        self.write("baseline/BENCH_k.json", "{not json")
        fresh = self.write("BENCH_k.json", [strict_record(0.10)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 1, msg=proc.stdout)
        self.assertIn("invalid JSON", proc.stdout)

    def test_all_zero_seconds_fails_not_suspiciously_fast(self):
        base = [strict_record(0.10), strict_record(0.20, shape="a")]
        self.write("baseline/BENCH_k.json", base)
        fresh = self.write("BENCH_k.json",
                           [dict(r, seconds=0.0) for r in base])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 1, msg=proc.stdout)
        self.assertIn("degenerate strict median", proc.stdout)

    def test_missing_strict_baseline_record_fails(self):
        self.write("baseline/BENCH_k.json",
                   [strict_record(0.10), strict_record(0.20, shape="a")])
        fresh = self.write("BENCH_k.json", [strict_record(0.10)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 1, msg=proc.stdout)
        self.assertIn("missing from fresh run", proc.stdout)

    # ---- ANN recall gate ----------------------------------------------

    def test_recall_drop_fails(self):
        self.write("baseline/BENCH_ann.json",
                   [ann_record(0.97), ann_record(0.99, nprobe=16)])
        fresh = self.write("BENCH_ann.json",
                           [ann_record(0.90), ann_record(0.99, nprobe=16)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 1, msg=proc.stdout)
        self.assertIn("FAIL recall_at_k", proc.stdout)

    def test_recall_within_epsilon_passes(self):
        self.write("baseline/BENCH_ann.json", [ann_record(0.970)])
        # Within RECALL_EPSILON (cross-tier rounding flipping one tie) and
        # 2x slower (inside the non-strict warn band): both pass.
        fresh = self.write("BENCH_ann.json",
                           [ann_record(0.967, seconds=0.10)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)

    def test_recall_improvement_passes(self):
        self.write("baseline/BENCH_ann.json", [ann_record(0.95)])
        fresh = self.write("BENCH_ann.json", [ann_record(0.99)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)

    def test_recall_drop_demoted_by_warn_only(self):
        self.write("baseline/BENCH_ann.json", [ann_record(0.97)])
        fresh = self.write("BENCH_ann.json", [ann_record(0.80)])
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--baseline-dir", self.baseline_dir,
             fresh],
            capture_output=True, text=True, cwd=self.dir,
            env={**os.environ, "BENCH_COMPARE_WARN_ONLY": "1"})
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)
        self.assertIn("warn: recall_at_k", proc.stdout)

    def test_recall_is_not_identity(self):
        # recall_at_k is a metric: a changed value must still match its
        # baseline record, not surface as new + missing-baseline.
        self.write("baseline/BENCH_ann.json", [ann_record(0.97)])
        fresh = self.write("BENCH_ann.json", [ann_record(0.99)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertNotIn("no baseline", proc.stdout)
        self.assertNotIn("baseline-only", proc.stdout)

    # ---- serving latency series ---------------------------------------

    def test_serving_latency_metrics_are_not_identity(self):
        # qps / p50 / p99 / offered_qps / mean_batch are metrics: a
        # fresh run with different numbers must still match its baseline
        # record (identity = bench + config fields only).
        self.write("baseline/BENCH_serving.json", [serving_record(10000.0)])
        fresh = self.write("BENCH_serving.json",
                           [serving_record(11000.0, p50=150.0, p99=700.0)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)
        self.assertNotIn("no baseline", proc.stdout)
        self.assertNotIn("baseline-only", proc.stdout)

    def test_serving_qps_collapse_warns(self):
        # Open-loop wall-clock is pinned by the pacing schedule, so the
        # seconds band can't see a throughput regression - the inverted
        # qps band must. Serving is non-strict: warn, don't fail.
        self.write("baseline/BENCH_serving.json", [serving_record(10000.0)])
        fresh = self.write("BENCH_serving.json",
                           [serving_record(2000.0)])  # 5x below, band is 4x
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)
        self.assertIn("warn: qps", proc.stdout)

    def test_serving_qps_within_band_passes_quietly(self):
        self.write("baseline/BENCH_serving.json", [serving_record(10000.0)])
        fresh = self.write("BENCH_serving.json", [serving_record(7000.0)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)
        self.assertNotIn("warn: qps", proc.stdout)

    def test_serving_identity_flag_false_fails(self):
        # Bit-identity to the serial oracle is the serving correctness
        # gate: no band, no machine excuse.
        self.write("baseline/BENCH_serving.json", [serving_record(10000.0)])
        fresh = self.write(
            "BENCH_serving.json",
            [serving_record(10000.0, identical_to_serial=False)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 1, msg=proc.stdout)
        self.assertIn("identical_to_serial=false", proc.stdout)

    def test_strict_qps_regression_fails(self):
        # A strict-series record carrying qps gets the hard inverted
        # band, normalized by the same strict median as seconds.
        base = [strict_record(0.10, qps=10000.0),
                strict_record(0.20, shape="a"),
                strict_record(0.30, shape="b")]
        self.write("baseline/BENCH_k.json", base)
        slow = [dict(r) for r in base]
        slow[0]["qps"] = 5000.0  # 2x down while peers hold
        fresh = self.write("BENCH_k.json", slow)
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 1, msg=proc.stdout)
        self.assertIn("FAIL qps", proc.stdout)

    # ---- tier metadata rules ------------------------------------------

    def test_tier_is_not_identity(self):
        self.write("baseline/BENCH_k.json", [strict_record(0.10, tier="avx512")])
        fresh = self.write("BENCH_k.json", [strict_record(0.10, tier="avx2")])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        # Matched despite the tier change: no "missing baseline" failure.
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)
        self.assertNotIn("missing from fresh run", proc.stdout)

    def test_tier_change_downgrades_strict_band_to_warn(self):
        base = [strict_record(0.10, tier="avx512"),
                strict_record(0.20, shape="a", tier="avx512")]
        self.write("baseline/BENCH_k.json", base)
        # 4x slower than baseline but on a different tier: warn, not fail
        # (still inside the 4x warn band boundary check via > comparison,
        # so use 5x to land outside it and prove it warns rather than
        # failing).
        fresh = self.write(
            "BENCH_k.json",
            [dict(strict_record(0.50, tier="avx2")),
             strict_record(0.20, shape="a", tier="avx512")])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)
        self.assertIn("warn", proc.stdout)

    def test_correctness_flag_fails_even_on_tier_change(self):
        self.write("baseline/BENCH_k.json", [strict_record(0.10, tier="avx512")])
        fresh = self.write(
            "BENCH_k.json",
            [strict_record(0.10, tier="avx2", matches_reference=False)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 1, msg=proc.stdout)
        self.assertIn("matches_reference=false", proc.stdout)

    # ---- int8 footprint and blocking-delta gates ----------------------

    def test_allocation_gate_covers_non_strict_series(self):
        # Allocation counts are deterministic: a zero-alloc baseline fails
        # on any series, not only the strict ones.
        base = {"bench": "ann_ivf_query_single", "storage": "fp32",
                "n_items": 10000, "seconds": 3e-5, "recall_at_k": 1.0,
                "allocs_per_call": 0}
        self.write("baseline/BENCH_ann.json", [base])
        fresh = self.write("BENCH_ann.json", [dict(base, allocs_per_call=2)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 1, msg=proc.stdout)
        self.assertIn("FAIL 2 allocs/call (baseline 0)", proc.stdout)
        # A non-zero baseline is not the zero-alloc contract: no gate.
        self.write("baseline/BENCH_ann.json", [dict(base, allocs_per_call=3)])
        fresh = self.write("BENCH_ann.json", [dict(base, allocs_per_call=4)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)

    def test_allocs_per_step_is_not_identity(self):
        # allocs_per_step is a metric: a training_step record whose
        # allocation count changed must still match its baseline record,
        # not surface as new + missing-baseline.
        base = {"bench": "training_step", "encoder": "fastbag_d64",
                "mode": "batched", "n_items": 256, "num_threads": 1,
                "seconds": 0.02, "steps_per_second": 400.0,
                "speedup_vs_per_row_serial": 1.2, "allocs_per_step": 3000.0,
                "identical_to_per_row": True}
        self.write("baseline/BENCH_p.json", [base])
        fresh = self.write("BENCH_p.json", [dict(base, allocs_per_step=300.0)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)
        self.assertNotIn("no baseline", proc.stdout)
        self.assertNotIn("baseline-only", proc.stdout)

    def test_bytes_resident_growth_fails(self):
        self.write("baseline/BENCH_ann.json",
                   [ann_record(0.93, bytes_resident=1800000)])
        fresh = self.write("BENCH_ann.json",
                           [ann_record(0.93, bytes_resident=2600000)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 1, msg=proc.stdout)
        self.assertIn("FAIL bytes_resident", proc.stdout)

    def test_bytes_resident_within_slack_passes(self):
        self.write("baseline/BENCH_ann.json",
                   [ann_record(0.93, bytes_resident=1800000)])
        # Shrinking or holding steady (and tiny rounding growth) passes.
        fresh = self.write("BENCH_ann.json",
                           [ann_record(0.93, bytes_resident=1800016)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)

    def test_bytes_resident_growth_demoted_by_warn_only(self):
        self.write("baseline/BENCH_ann.json",
                   [ann_record(0.93, bytes_resident=1800000)])
        fresh = self.write("BENCH_ann.json",
                           [ann_record(0.93, bytes_resident=7200000)])
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--baseline-dir", self.baseline_dir,
             fresh],
            capture_output=True, text=True, cwd=self.dir,
            env={**os.environ, "BENCH_COMPARE_WARN_ONLY": "1"})
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)
        self.assertIn("warn: bytes_resident", proc.stdout)

    def test_bytes_resident_is_not_identity(self):
        # A footprint change must match up against its baseline record
        # (and be gated), not surface as new + missing-baseline.
        self.write("baseline/BENCH_ann.json",
                   [ann_record(0.93, bytes_resident=6500000)])
        fresh = self.write("BENCH_ann.json",
                           [ann_record(0.93, bytes_resident=1800000)])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertNotIn("no baseline", proc.stdout)
        self.assertNotIn("baseline-only", proc.stdout)

    def test_int8_blocking_delta_fails(self):
        rec = {"bench": "table7_blocking_int8_check", "dataset": "AB",
               "storage": "int8", "k": 10, "recall_at_k": 0.950,
               "fp32_recall_at_k": 0.971}
        self.write("baseline/BENCH_t7.json", [rec])
        fresh = self.write("BENCH_t7.json", [rec])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 1, msg=proc.stdout)
        self.assertIn("FAIL int8 recall", proc.stdout)

    def test_int8_blocking_delta_fails_even_without_baseline(self):
        # The delta is self-contained in the fresh record, so a brand-new
        # series (no committed baseline yet) is still gated.
        rec = {"bench": "table7_blocking_int8_check", "dataset": "AB",
               "storage": "int8", "k": 10, "recall_at_k": 0.900,
               "fp32_recall_at_k": 0.971}
        other = {"bench": "table7_blocking", "dataset": "AB", "k": 10,
                 "recall_at_k": 0.971}
        self.write("baseline/BENCH_t7.json", [other])
        fresh = self.write("BENCH_t7.json", [other, rec])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 1, msg=proc.stdout)
        self.assertIn("FAIL int8 recall", proc.stdout)

    def test_int8_blocking_delta_within_budget_passes(self):
        rec = {"bench": "table7_blocking_int8_check", "dataset": "AB",
               "storage": "int8", "k": 10, "recall_at_k": 0.965,
               "fp32_recall_at_k": 0.971}
        self.write("baseline/BENCH_t7.json", [rec])
        fresh = self.write("BENCH_t7.json", [rec])
        proc = self.run_compare(fresh)
        self.assert_clean(proc)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)


if __name__ == "__main__":
    unittest.main()
