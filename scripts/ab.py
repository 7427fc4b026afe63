#!/usr/bin/env python3
"""Paired A/B measurement of a base ref against the working tree.

Checks the base ref out into a git worktree outside the repo (or uses an
existing checkout given by --base-dir), builds both sides, and then runs
one command N times on each side, alternating which side goes first in
each pair so drift in host capacity hits both sides alike. For every
metric it prints the median paired ratio (change / base), the IQR of the
ratios, the medians of both sides, the base's own IQR, and how many
pairs the change won. An optional A/A control (--aa) runs the base
against itself the same way; its ratios show the noise floor.

Two kinds of command:

  scripts/ab.py --base HEAD~1 --pairs 10 -- \\
      python3 perfbench/run.py --workload resolve --seconds 20

    Any command, run from each side's checkout root. Its last line of
    standard output must be JSON: a perfbench result
    ({"metrics": {name: {"value": v}}}) or a list of bench records.
    One untimed warm-up run per side builds what the command needs.

  scripts/ab.py --base HEAD~1 --pairs 10 --bench bench_ann

    A bench binary: configured (Release) and built in <side>/build-ab,
    then run with --json; each numeric metric of each record becomes one
    metric, named "<bench>[<identity fields>].<metric>".

A metric's direction (lower or higher is better) comes from the change
side's BENCHMARK.json when it names the metric, else from its name.
--json FILE writes every raw run for later analysis.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Bench-record fields that are measurements, not identity (see
# scripts/bench_compare.py for the full vocabulary).
BENCH_METRICS = ("seconds", "speedup", "speedup_vs_per_row_serial",
                 "speedup_vs_nocache_warm", "speedup_vs_exact",
                 "speedup_vs_batch1", "steps_per_second", "gflops",
                 "recall_at_k", "fp32_recall_at_k", "qps", "p50_us",
                 "p99_us", "mean_batch", "allocs_per_call",
                 "alloc_bytes_per_call", "allocs_per_step", "bytes_resident",
                 "bytes_ratio")
HIGHER_HINTS = ("throughput", "qps", "speedup", "recall", "quality",
                "gflops", "steps_per_second", "hit_ratio", "replay_exact",
                "flush_size", "using_ivf", "live_items")


def log(msg):
    print(f"ab.py: {msg}", file=sys.stderr, flush=True)


def quantile(xs, q):
    """Linear-interpolated quantile of a non-empty list."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def iqr(xs):
    return quantile(xs, 0.75) - quantile(xs, 0.25)


def side_order(pair):
    """Which side runs first in pair `pair`: base first on even pairs."""
    return ("base", "change") if pair % 2 == 0 else ("change", "base")


def higher_is_better(name, directions):
    short = name.split(".")[-1]
    for key in (name, short):
        if key in directions:
            return directions[key] == "higher"
    return any(h in name for h in HIGHER_HINTS)


def load_directions(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in spec.get(group, []):
            if "name" in m and "better" in m:
                out[m["name"]] = m["better"]
    return out


def flatten(result):
    """Metrics {name: value} of one run's JSON (perfbench or records)."""
    out = {}
    if isinstance(result, dict):
        for name, m in result.get("metrics", {}).items():
            value = m.get("value") if isinstance(m, dict) else m
            if isinstance(value, (int, float)):
                out[name] = float(value)
        return out
    for rec in result:
        ident = ",".join(f"{k}={v}" for k, v in sorted(rec.items())
                         if k not in BENCH_METRICS and k not in ("bench", "tier")
                         and not isinstance(v, bool))
        for k in BENCH_METRICS:
            v = rec.get(k)
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                out[f"{rec.get('bench', '?')}[{ident}].{k}"] = float(v)
    return out


def summarize(runs, directions):
    """Per-metric paired statistics over runs = [{"base": m, "change": m}]."""
    rows = []
    names = sorted(set().union(*(set(r["base"]) & set(r["change"])
                                 for r in runs))) if runs else []
    for name in names:
        pairs = [(r["base"][name], r["change"][name]) for r in runs
                 if name in r["base"] and name in r["change"]]
        base = [b for b, _ in pairs]
        change = [c for _, c in pairs]
        ratios = [c / b for b, c in pairs if b != 0]
        higher = higher_is_better(name, directions)
        wins = sum(1 for b, c in pairs if (c > b if higher else c < b))
        base_med = quantile(base, 0.5)
        rows.append({
            "metric": name,
            "pairs": len(pairs),
            "better": "higher" if higher else "lower",
            "base_median": base_med,
            "change_median": quantile(change, 0.5),
            "base_iqr": iqr(base),
            "ratio_median": quantile(ratios, 0.5) if ratios else None,
            "ratio_iqr": iqr(ratios) if ratios else None,
            "wins": wins,
            # The pass rule of a claim: the medians differ by more than
            # the base's own spread.
            "beyond_base_iqr":
                abs(quantile(change, 0.5) - base_med) > iqr(base),
        })
    return rows


def print_table(title, rows):
    print(f"\n== {title} ==")
    width = min(90, max([len("metric")] + [len(r["metric"]) for r in rows]))
    header = (f"{'metric':<{width}} {'base med':>11} {'change med':>11} "
              f"{'base IQR':>9} {'ratio':>7} {'ratio IQR':>9} {'wins':>6}")
    print(header)
    print("-" * len(header))
    for r in rows:
        ratio = "-" if r["ratio_median"] is None else f"{r['ratio_median']:.3f}"
        riqr = "-" if r["ratio_iqr"] is None else f"{r['ratio_iqr']:.3f}"
        mark = "*" if r["beyond_base_iqr"] else " "
        print(f"{r['metric'][:width]:<{width}} {r['base_median']:>11.5g} "
              f"{r['change_median']:>11.5g} {r['base_iqr']:>9.3g} "
              f"{ratio:>7} {riqr:>9} {r['wins']:>3}/{r['pairs']:<2}{mark}")
    print("(* the medians differ by more than the base IQR; wins count "
          "pairs where the change side is better in the metric's direction)")


def checkout_base(ref, workdir, repo=ROOT):
    """A detached worktree of `ref` under `workdir`, reused if present."""
    sha = subprocess.run(["git", "-C", repo, "rev-parse", "--verify",
                          f"{ref}^{{commit}}"], check=True,
                         capture_output=True, text=True).stdout.strip()
    path = os.path.join(workdir, f"ab-base-{sha[:12]}")
    if not os.path.exists(path):
        log(f"checking out {ref} ({sha[:12]}) into {path}")
        subprocess.run(["git", "-C", repo, "worktree", "add", "--detach",
                        path, sha], check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
    return path


def build_bench(root, target):
    build = os.path.join(root, "build-ab")
    subprocess.run(["cmake", "-S", root, "-B", build,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DSUDOWOODO_BUILD_BENCHES=ON"],
                   check=True, stdout=2)
    subprocess.run(["cmake", "--build", build, "--target", target, "-j",
                    str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=2)
    return os.path.join(build, target)


def run_once(root, args):
    """One run on the checkout at `root`; returns its flattened metrics."""
    if args.bench:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "bench.json")
            subprocess.run([os.path.join(root, "build-ab", args.bench),
                            "--json", out], check=True,
                           stdout=subprocess.DEVNULL)
            with open(out) as f:
                return flatten(json.load(f))
    proc = subprocess.run(args.command, cwd=root, check=True,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ValueError(f"no output from {args.command} in {root}")
    return flatten(json.loads(lines[-1]))


def run_pairs(sides, args, label):
    runs = []
    for pair in range(args.pairs):
        run = {}
        for side in side_order(pair):
            log(f"{label} pair {pair + 1}/{args.pairs}: {side}")
            run[side] = run_once(sides[side], args)
        runs.append(run)
    return runs


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    ap.add_argument("--base", default="HEAD",
                    help="git ref of the base side (default HEAD)")
    ap.add_argument("--base-dir", help="use this existing checkout of the "
                    "base instead of creating a worktree")
    ap.add_argument("--change-dir", default=ROOT,
                    help="checkout of the change side (default: this repo)")
    ap.add_argument("--workdir", default=tempfile.gettempdir(),
                    help="where the base worktree is created")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--aa", action="store_true",
                    help="also run an A/A control: the base against itself")
    ap.add_argument("--bench", help="bench binary target, e.g. bench_ann")
    ap.add_argument("--json", help="write every raw run to this file")
    ap.add_argument("command", nargs="*",
                    help="command to run on each side (after --)")
    args = ap.parse_args(argv)
    if bool(args.bench) == bool(args.command):
        ap.error("give exactly one of --bench NAME or -- COMMAND")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    sides = {"change": os.path.abspath(args.change_dir),
             "base": os.path.abspath(args.base_dir) if args.base_dir
             else checkout_base(args.base, args.workdir)}
    for name, root in sides.items():
        if args.bench:
            log(f"building {args.bench} on the {name} side")
            build_bench(root, args.bench)
        log(f"warm-up run on the {name} side")
        run_once(root, args)

    directions = load_directions(sides["change"])
    report = {"sides": sides,
              "runs": run_pairs(sides, args, "A/B")}
    print_table(f"A/B: {sides['base']} -> {sides['change']}",
                summarize(report["runs"], directions))
    if args.aa:
        aa_sides = {"base": sides["base"], "change": sides["base"]}
        report["aa_runs"] = run_pairs(aa_sides, args, "A/A")
        print_table(f"A/A control: {sides['base']} against itself",
                    summarize(report["aa_runs"], directions))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
