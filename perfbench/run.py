#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload resolve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
library and the benchmark from source into .bench_build/ (Release); later
calls only rebuild what changed. The benchmark's standard output is passed
through: metric lines, then one JSON result as the last line. A traced run
(--trace 1) also writes its spans to .bench_build/traces/. --workload all
runs every workload in turn and ends with one JSON line whose metric names
are prefixed by the workload. --self-test builds and runs the benchmark's
own determinism tests.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("resolve", "ingest", "em_pipeline")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    # The library's own build description and sources must be present;
    # without them there is nothing to measure.
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} at the checkout root; cannot build the library")
    # Keep the compiler's temporary files inside the build directory, and
    # keep ccache (if the library's build finds one) from writing a cache
    # outside it.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{args.seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_test")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    binary = build("perfbench")
    if args.workload != "all":
        run_one(binary, args.workload, args)
        return
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(binary, workload, args)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
