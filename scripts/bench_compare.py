#!/usr/bin/env python3
"""Diffs fresh BENCH_*.json runs against committed baselines.

Each bench JSON is a flat list of records; every record is identified by
its non-metric fields (bench name, shape, variant, thread count, ...) and
carries metrics (seconds, speedup, gflops, allocs). This tool matches
fresh records to baseline records by identity, prints a side-by-side
table, and flags entries whose metrics drifted outside a tolerance band.

Two enforcement tiers:

* STRICT series (bench names matching ``kernels_*`` or
  ``encode_steady_state``): these are the hot-path guarantees, and a
  fresh record that is more than ``--strict-tolerance`` (default 1.15 =
  +15%) slower than its committed baseline FAILS the run - after
  normalizing by the file's *median* strict ratio, so a uniformly
  slower/faster machine (CI runners vs the dev container) shifts every
  record together and passes, while any single kernel or serving path
  that regressed relative to its peers fails. A strict baseline record
  that goes missing from the fresh run FAILS too (otherwise renaming a
  series would silently disarm the gate). Single-call cold-phase
  records and baselines under 5 ms are exempt from the strict *seconds*
  band (too noisy at 15% on shared runners) but keep the allocation and
  correctness checks. Set the environment variable
  ``BENCH_COMPARE_WARN_ONLY=1`` to demote strict failures to warnings
  (e.g. while rebaselining with scripts/bench.sh).

* Everything else stays warn-only with a wide ``--tolerance`` band
  (default 4x): shared 1-2 core CI runners make end-to-end timings
  noisy, so those catch order-of-magnitude regressions without failing.

Allocation counts are deterministic, so their gate applies to EVERY
record, strict or not: a record whose baseline ``allocs_per_call`` is 0
FAILS if the fresh run starts allocating (the allocation-free contract
of the serving steady states and of single index queries; demoted to a
warning only by ``BENCH_COMPARE_WARN_ONLY=1``).

The ``tier`` field (which SIMD dispatch tier ran the kernel) is
machine-dependent metadata: it is excluded from record identity, and a
record whose fresh tier differs from its baseline tier drops from the
strict seconds band (and the median normalizer) to the warn-only band -
an AVX-512 dev-container baseline must not fail an AVX2 CI runner.

Degenerate inputs are clean failures, not crashes or silent passes: an
empty/unparseable fresh or baseline file FAILs with a one-line message,
and an all-zero (or otherwise non-finite) strict seconds column FAILs
instead of zeroing the band out.

The serving series (``serving_closed_loop``, ``serving_open_loop``)
reports rates and latencies instead of pure wall-clock: ``qps`` is
regression-gated through the same bands as seconds but in the inverted
direction (a fresh rate *below* baseline/band is the slowdown), while
``p50_us``/``p99_us``/``mean_batch``/``speedup_vs_batch1`` are
non-identity informational metrics - they ride along in the record
without gating, so a re-tuned batch window doesn't break comparison.

Correctness booleans (identical_to_serial, identical_to_per_row,
identical_to_uncached, matches_reference) are hard-checked regardless of
any band or env override. ``recall_at_k`` (the ANN series) is likewise a
correctness metric, not a timing: a fresh recall more than
``RECALL_EPSILON`` below its committed baseline FAILS on any machine (the
tiny epsilon absorbs cross-tier FMA rounding flipping borderline
neighbours), demoted to a warning only by ``BENCH_COMPARE_WARN_ONLY=1``.
Two more machine-independent gates ride the same mechanism:
``bytes_resident`` (exact index/cache footprint) FAILS when a fresh
count grows past baseline * ``BYTES_SLACK``, and a record carrying both
``recall_at_k`` and ``fp32_recall_at_k`` (the quantized-blocking series)
FAILS when int8 end-to-end blocking recall falls more than
``INT8_BLOCKING_DELTA`` below the fp32 oracle measured in the same run.

Usage:
  scripts/bench_compare.py [--baseline-ref HEAD] [--baseline-dir DIR]
                           [--tolerance 4.0] [--strict-tolerance 1.15]
                           BENCH_a.json [BENCH_b.json ...]

Exit status: 0 when all correctness flags hold and no strict series is
out of band; 1 otherwise.
"""

import argparse
import json
import math
import os
import subprocess
import sys

METRIC_FIELDS = ("seconds", "speedup", "speedup_vs_per_row_serial",
                 "speedup_vs_nocache_warm", "speedup_vs_exact",
                 "speedup_vs_batch1", "steps_per_second", "gflops",
                 "recall_at_k", "fp32_recall_at_k", "qps", "p50_us",
                 "p99_us", "offered_qps", "mean_batch", "allocs_per_call",
                 "alloc_bytes_per_call", "allocs_per_step", "bytes_resident",
                 "bytes_ratio")
CORRECTNESS_FIELDS = ("identical_to_serial", "identical_to_per_row",
                      "matches_reference", "identical_to_serial_training",
                      "identical_to_uncached")
STRICT_BENCH_PREFIXES = ("kernels_", "encode_steady_state")
# Machine-dependent metadata: part of neither the record's identity (an
# AVX-512 baseline and an AVX2 CI runner must still match up) nor the
# metrics. When the fresh tier differs from the baseline tier the strict
# seconds band is skipped for that record - the dispatch picked a
# different kernel, so the timing comparison is apples-to-oranges - but
# correctness and allocation gates still apply.
METADATA_FIELDS = ("tier",)


def identity(record):
    """Hashable identity of a record: everything that is not a metric,
    a correctness outcome, or machine metadata. Correctness booleans are
    results: a flag that flips to false must still match its baseline
    record (and FAIL), not surface as an unrelated new record."""
    skip = METRIC_FIELDS + METADATA_FIELDS + CORRECTNESS_FIELDS
    return tuple(sorted((k, v) for k, v in record.items()
                        if k not in skip))


def is_strict(record):
    name = str(record.get("bench", ""))
    return any(name == p or name.startswith(p) for p in STRICT_BENCH_PREFIXES)


# Strict *seconds* gating skips records whose timing cannot be trusted to
# 15% on a shared runner: single-call cold-phase measurements and
# baselines under this floor (microsecond all-hit cache rows, the tiny
# attention-score kernel shapes). The allocation gate is deterministic
# and applies regardless.
STRICT_SECONDS_FLOOR = 0.005

# Largest tolerated drop in a record's recall_at_k below its committed
# baseline. Recall is deterministic on a fixed kernel tier; the epsilon
# only absorbs a different tier's FMA rounding flipping ties at the top-k
# boundary. Anything bigger means the index got worse: hard FAIL.
RECALL_EPSILON = 0.005

# End-to-end quantized-blocking budget: a fresh record that carries both
# recall_at_k and fp32_recall_at_k (the table7_blocking_int8_check
# series) asserts, within the fresh run alone, that int8 storage costs at
# most this much absolute blocking recall versus the fp32 oracle. The
# check needs no baseline and no band - int8 scoring is integer-exact, so
# the delta is bit-reproducible on any machine.
INT8_BLOCKING_DELTA = 0.01

# Memory-footprint gate: bytes_resident is an exact byte count (row
# payload + id map), not a timing, so it is compared deterministically -
# a fresh count above baseline by more than this slack (rounding in
# derived structures) means the storage layout regressed. The slack is
# multiplicative so both index scales share one constant.
BYTES_SLACK = 1.01


def strict_seconds_gated(record, baseline_seconds):
    return record.get("phase") != "cold" and \
        isinstance(baseline_seconds, (int, float)) and \
        baseline_seconds >= STRICT_SECONDS_FLOOR


class BenchDataError(Exception):
    """A bench JSON file that cannot be compared (empty, unparseable,
    or not a list of records). Raised instead of letting json tracebacks
    leak: a truncated or zeroed-out file must be a clean FAIL, not a
    crash (which some CI wrappers treat as flaky) or a silent pass."""


def load_records(text, what):
    try:
        records = json.loads(text)
    except json.JSONDecodeError as e:
        raise BenchDataError(f"{what}: invalid JSON ({e})") from e
    if not isinstance(records, list) or \
            not all(isinstance(r, dict) for r in records):
        raise BenchDataError(f"{what}: expected a JSON list of records")
    if not records:
        raise BenchDataError(f"{what}: no records (empty series)")
    return records


def load_baseline(name, ref, baseline_dir):
    if baseline_dir is not None:
        path = os.path.join(baseline_dir, os.path.basename(name))
        try:
            with open(path) as f:
                text = f.read()
        except FileNotFoundError:
            return None
        return load_records(text, f"baseline {path}")
    out = subprocess.run(["git", "show", f"{ref}:{name}"],
                         capture_output=True, text=True)
    if out.returncode != 0:
        return None
    return load_records(out.stdout, f"baseline {ref}:{name}")


def fmt_seconds(v):
    return f"{v:.4f}s" if isinstance(v, (int, float)) else "-"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fresh", nargs="+", help="fresh bench JSON files")
    ap.add_argument("--baseline-ref", default="HEAD",
                    help="git ref holding the committed baselines")
    ap.add_argument("--baseline-dir", default=None,
                    help="read baselines from this dir instead of git")
    ap.add_argument("--tolerance", type=float, default=4.0,
                    help="warn when a non-strict fresh/baseline seconds "
                         "ratio leaves [1/t, t]")
    ap.add_argument("--strict-tolerance", type=float, default=1.15,
                    help="fail when a strict-series seconds ratio exceeds "
                         "this (kernels_*, encode_steady_state)")
    args = ap.parse_args()
    warn_only = os.environ.get("BENCH_COMPARE_WARN_ONLY", "") not in ("", "0")

    failures = 0
    warnings = 0
    for name in args.fresh:
        print(f"\n== {name} ==")
        try:
            try:
                with open(name) as f:
                    text = f.read()
            except OSError as e:
                raise BenchDataError(f"fresh {name}: {e}")
            fresh = load_records(text, f"fresh {name}")
            baseline = load_baseline(name, args.baseline_ref,
                                     args.baseline_dir)
        except BenchDataError as e:
            print(f"  FAIL {e}")
            failures += 1
            continue
        if baseline is None:
            print(f"  (no committed baseline at {args.baseline_ref}; "
                  "skipping comparison)")
            continue
        base_by_id = {identity(r): r for r in baseline}

        # Median seconds-ratio of the strict records: the machine-speed
        # normalizer for the strict band (see module docstring). Records
        # whose kernel tier changed are left out - a different dispatch
        # is a genuine speed change, not machine noise.
        strict_ratios = []
        for record in fresh:
            if not is_strict(record):
                continue
            base = base_by_id.get(identity(record))
            if base is None or record.get("tier") != base.get("tier"):
                continue
            bs, fs = base.get("seconds"), record.get("seconds")
            if isinstance(bs, (int, float)) and isinstance(fs, (int, float)) \
                    and bs > 0:
                strict_ratios.append(fs / bs)
        strict_ratios.sort()
        strict_norm = strict_ratios[len(strict_ratios) // 2] \
            if strict_ratios else 1.0
        if not math.isfinite(strict_norm) or strict_norm <= 0:
            # A zero/NaN median means the strict timings themselves are
            # garbage (an all-zero seconds column from a broken timer or
            # a hand-zeroed file). Comparing against it would set the
            # band to 0 and mask every regression as "suspiciously
            # fast", so fail the file outright.
            print(f"  FAIL degenerate strict median ratio "
                  f"({strict_norm!r}): timings unusable")
            failures += 1
            continue

        header = f"{'bench/shape':<52} {'baseline':>10} {'fresh':>10} " \
                 f"{'ratio':>7}  status"
        print(header)
        print("-" * len(header))
        for record in fresh:
            rid = identity(record)
            base = base_by_id.pop(rid, None)
            label_bits = [str(record.get("bench", "?"))]
            for k in ("shape", "kernel", "variant", "encoder", "mode",
                      "cache", "phase", "num_threads", "num_shards",
                      "window_us"):
                if k in record:
                    label_bits.append(f"{k.split('_')[-1]}={record[k]}")
            label = " ".join(label_bits)[:52]
            strict = is_strict(record)

            status = "ok"
            ratio_text = "-"
            for k in CORRECTNESS_FIELDS:
                if k in record and record[k] is not True:
                    status = f"FAIL {k}=false"
                    failures += 1
            # Quantized-blocking delta gate: self-contained in the fresh
            # record (both recalls measured in the same run), so it fires
            # even on brand-new series with no baseline yet.
            fr32 = record.get("fp32_recall_at_k")
            fri8 = record.get("recall_at_k")
            if isinstance(fr32, (int, float)) and \
                    isinstance(fri8, (int, float)) and \
                    fri8 < fr32 - INT8_BLOCKING_DELTA:
                if warn_only:
                    status = f"warn: int8 recall {fri8:.4f} < fp32 " \
                             f"{fr32:.4f} - {INT8_BLOCKING_DELTA}"
                    warnings += 1
                else:
                    status = f"FAIL int8 recall {fri8:.4f} < fp32 " \
                             f"{fr32:.4f} - {INT8_BLOCKING_DELTA}"
                    failures += 1
            if base is None:
                if status == "ok":
                    status = "new (no baseline)"
                print(f"{label:<52} {'-':>10} "
                      f"{fmt_seconds(record.get('seconds')):>10} "
                      f"{ratio_text:>7}  {status}")
                continue
            bs, fs = base.get("seconds"), record.get("seconds")
            if isinstance(bs, (int, float)) and isinstance(fs, (int, float)) \
                    and bs > 0:
                ratio = fs / bs
                ratio_text = f"{ratio:.2f}x"
                hard = strict and strict_seconds_gated(record, bs) and \
                    record.get("tier") == base.get("tier")
                band = args.strict_tolerance * strict_norm if hard \
                    else args.tolerance
                if ratio > band:
                    if hard and not warn_only:
                        status = f"FAIL >{band:.2f}x strict band"
                        failures += 1
                    else:
                        status = f"warn: slower than {band:.2f}x band"
                        warnings += 1
                elif ratio < 1.0 / args.tolerance:
                    # Faster than the band usually means the workload
                    # shrank by accident; surface it, don't fail.
                    status = "suspiciously fast (check workload)"
                    warnings += 1
            # Throughput gate (the serving series): qps is a rate, so the
            # regression direction is inverted - fresh *below* baseline is
            # the slowdown. Gated through the same bands as seconds
            # (strict band for strict series, wide warn band otherwise),
            # so a QPS collapse surfaces even on records whose wall-clock
            # is pinned by the workload (open-loop runs last exactly as
            # long as their pacing schedule regardless of server health).
            bq, fq = base.get("qps"), record.get("qps")
            if status == "ok" and isinstance(bq, (int, float)) and \
                    isinstance(fq, (int, float)) and bq > 0 and fq > 0:
                qps_ratio = bq / fq
                hard = strict and record.get("tier") == base.get("tier")
                band = args.strict_tolerance * strict_norm if hard \
                    else args.tolerance
                if qps_ratio > band:
                    if hard and not warn_only:
                        status = f"FAIL qps {fq:.0f} < baseline " \
                                 f"{bq:.0f} / {band:.2f}x band"
                        failures += 1
                    else:
                        status = f"warn: qps {fq:.0f} below baseline " \
                                 f"{bq:.0f} / {band:.2f}x band"
                        warnings += 1
            # Allocation-free contract: a record whose committed baseline
            # allocates nothing must stay at zero. Counts are
            # deterministic, so this holds for every series.
            ba = base.get("allocs_per_call")
            fa = record.get("allocs_per_call")
            if isinstance(ba, (int, float)) and \
                    isinstance(fa, (int, float)) and ba == 0 and fa > 0:
                if warn_only:
                    status = f"warn: {fa:.0f} allocs/call (baseline 0)"
                    warnings += 1
                else:
                    status = f"FAIL {fa:.0f} allocs/call (baseline 0)"
                    failures += 1
            # Recall gate: approximate-index quality is correctness, not
            # timing - machine-independent, so no band or median applies.
            br = base.get("recall_at_k")
            fr = record.get("recall_at_k")
            if isinstance(br, (int, float)) and isinstance(fr, (int, float)) \
                    and fr < br - RECALL_EPSILON:
                if warn_only:
                    status = f"warn: recall_at_k {fr:.4f} < " \
                             f"baseline {br:.4f}"
                    warnings += 1
                else:
                    status = f"FAIL recall_at_k {fr:.4f} < " \
                             f"baseline {br:.4f}"
                    failures += 1
            # Footprint gate: resident bytes are deterministic (exact
            # buffer sizes), so growth beyond the slack is a layout
            # regression on any machine.
            bb = base.get("bytes_resident")
            fb = record.get("bytes_resident")
            if isinstance(bb, (int, float)) and isinstance(fb, (int, float)) \
                    and bb > 0 and fb > bb * BYTES_SLACK:
                if warn_only:
                    status = f"warn: bytes_resident {fb:.0f} > " \
                             f"baseline {bb:.0f} * {BYTES_SLACK}"
                    warnings += 1
                else:
                    status = f"FAIL bytes_resident {fb:.0f} > " \
                             f"baseline {bb:.0f} * {BYTES_SLACK}"
                    failures += 1
            print(f"{label:<52} {fmt_seconds(bs):>10} {fmt_seconds(fs):>10} "
                  f"{ratio_text:>7}  {status}")
        for rid, base in base_by_id.items():
            # A strict baseline record with no fresh counterpart means the
            # guarded series stopped being measured (renamed identity
            # fields, bench section compiled out): that disarms the gate,
            # so it fails rather than warns.
            if is_strict(base) and not warn_only:
                print(f"  FAIL strict baseline record missing from fresh "
                      f"run: {dict(rid).get('bench', rid)}")
                failures += 1
            else:
                print(f"  baseline-only record dropped from fresh run: "
                      f"{dict(rid).get('bench', rid)}")

    if warnings:
        print(f"\n{warnings} warn-only record(s) out of band.")
    if failures:
        print(f"\n{failures} record(s) failing correctness flags or the "
              "strict perf band.")
        return 1
    print("\nAll strict series within band; correctness flags hold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
