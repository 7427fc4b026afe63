#!/usr/bin/env python3
"""Heap trims per em_pipeline job, counted with an LD_PRELOAD shim.

glibc shrinks the top of its main heap (a "trim") when a free leaves
enough unused memory there, and grows it again on the next large
allocation. How often that happens depends on the allocation shape, and it
moves em_pipeline's time. scripts/heap_trims_shim.c counts the frees and
reallocs after which sbrk(0) went down.

For each seed this runs perfbench's em_pipeline workload twice, for 4 s and
for 12 s, with the shim preloaded, and prints

    trims per job = (trims_long - trims_short) / (jobs_long - jobs_short)

so the set-up's trims cancel. Example, from the root of a checkout:

    scripts/heap_trims.py --seeds 1-10
    scripts/heap_trims.py --checkout ../parent --seeds 1,7

--checkout runs another checkout's benchmark (its perfbench/run.py builds
it first); the shim always comes from this script's directory. glibc only.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHORT_S, LONG_S = 4, 12


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def build_shim(tmp):
    shim = os.path.join(tmp, "heap_trims_shim.so")
    cmd = ["cc", "-O2", "-shared", "-fPIC", "-o", shim,
           os.path.join(HERE, "heap_trims_shim.c")]
    subprocess.run(cmd, check=True)
    return shim


def build_perfbench(checkout):
    # A one-second run builds (or refreshes) <checkout>/.bench_build.
    subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                    "em_pipeline", "--seed", "1", "--seconds", "1"],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    return os.path.join(checkout, ".bench_build", "perfbench")


def run(binary, shim, tmp, seed, seconds):
    """Returns (jobs, trims) of one em_pipeline run under the shim."""
    out = os.path.join(tmp, "trims.txt")
    env = dict(os.environ, LD_PRELOAD=shim, HEAP_TRIMS_OUT=out)
    proc = subprocess.run(
        [binary, "--workload", "em_pipeline", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        env=env, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out) as f:
        trims = int(f.read())
    return result["attempted"], trims


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10",
                        help="seeds, e.g. 1-10 or 1,3,7 (default 1-10)")
    parser.add_argument("--checkout", default=ROOT,
                        help="checkout whose perfbench to run (default: this one)")
    args = parser.parse_args()

    tmp = tempfile.mkdtemp(prefix="heap_trims_")
    try:
        shim = build_shim(tmp)
        binary = build_perfbench(os.path.abspath(args.checkout))
        for seed in parse_seeds(args.seeds):
            jobs_s, trims_s = run(binary, shim, tmp, seed, SHORT_S)
            jobs_l, trims_l = run(binary, shim, tmp, seed, LONG_S)
            per_job = ("n/a" if jobs_l <= jobs_s else
                       f"{(trims_l - trims_s) / (jobs_l - jobs_s):.2f}")
            print(f"seed {seed:3d}  jobs {jobs_s:3d} -> {jobs_l:3d}  "
                  f"trims {trims_s:5d} -> {trims_l:5d}  per job {per_job}",
                  flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
