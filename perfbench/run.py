#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the confcall CLI and the benchmark
executable with dune (release profile, shared build cache off), then
runs the workload; the benchmark's own output passes through, and its
last line is the JSON result. Working files (daemon socket and log,
spans of a traced run, any tool cache) go to .perfbench/ under the
root.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["serve-deadline", "serve-mid", "metro", "sim-residence"]
BENCH = "perfbench/bench.exe"
CLI = "bin/confcall_cli.exe"
BUILD_DIR = "_build/default"
OUT_DIR = ".perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (no dune-project/lib here)",
              file=sys.stderr)
        return 2

    # Keep every file the build writes inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(OUT_DIR, "cache")))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./" + BENCH, "./" + CLI],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    bench = subprocess.run(
        [os.path.join(BUILD_DIR, BENCH),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--cli", os.path.join(BUILD_DIR, CLI), "--out", OUT_DIR])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
