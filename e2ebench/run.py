#!/usr/bin/env python3
"""Builds and runs the wpred end-to-end benchmark.

    python3 e2ebench/run.py --workload simulate|fit|serve|rank \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It configures and builds the
library plus the benchmark binary with CMake into .bench_build/e2ebench
(or $CARGO_TARGET_DIR/e2ebench when that is set), then runs the binary
with the same flags. The binary's last stdout line is the JSON result.
Build output goes to stderr. Without a source tree next to this
directory it exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
JOBS = "4"


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no wpred source tree at " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "wpred_e2ebench",
                  "-j", JOBS])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["simulate", "fit", "serve", "rank"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    build(out)

    # The benchmark pins its own knobs; library env knobs must not leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("WPRED_")}
    command = [os.path.join(out, "wpred_e2ebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", out]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
