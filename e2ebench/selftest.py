#!/usr/bin/env python3
"""The benchmark's own test, at a seed held out from tuning.

    python3 e2ebench/selftest.py [--seed N] [--seconds S]

For every workload it makes one untraced run and two traced runs through
run.py. Each run must be correct, with ok_share = 1 and output_match = 1,
and must print exactly the metrics and units BENCHMARK.json names. The
exact counters must repeat between the two traced runs. It also checks
that run.py fails, printing no result, in a tree that holds only
BENCHMARK.json and this directory. Exits non-zero on the first failure.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_COUNTERS = ["sim.events", "similarity.dtw.cells_in_band",
                  "similarity.query.exact"]


def run(cwd, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(cwd, "e2ebench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def result(done, what):
    if done.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (what, done.returncode,
                                           done.stderr[-3000:]))
    res = json.loads(done.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"] != 0:
        notes = [l for l in done.stderr.splitlines() if "e2ebench:" in l]
        print("\n".join(notes[-20:]), file=sys.stderr)
    return res


def expect(condition, what):
    if not condition:
        sys.exit("FAIL " + what)
    print("ok   " + what)


def check_names(res, spec, what):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    expect(got == want, what + ": metric names and units match BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=20261017)
    parser.add_argument("--seconds", type=float, default=4)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for workload in [w["name"] for w in bench["workloads"]]:
        tag = "%s seed %d" % (workload, args.seed)
        plain = result(run(ROOT, workload, args.seed, args.seconds, 0), tag)
        check_names(plain, bench["end_to_end"], tag + " untraced")
        expect(plain["correct"], tag + " untraced: correct")
        expect(plain["attempted"] >= 1 and plain["failed"] == 0,
               tag + " untraced: no failed operation")
        for name in ["ok_share", "output_match"]:
            expect(plain["metrics"][name]["value"] == 1.0,
                   "%s untraced: %s = 1" % (tag, name))
        traced = [result(run(ROOT, workload, args.seed, args.seconds, 1),
                         tag + " traced") for _ in range(2)]
        for res in traced:
            check_names(res, bench["per_layer"], tag + " traced")
            expect(res["correct"] and res["failed"] == 0,
                   tag + " traced: correct, no failed operation")
        for name in EXACT_COUNTERS:
            a, b = (res["metrics"][name]["value"] for res in traced)
            expect(a == b and a > 0,
                   "%s traced: %s repeats exactly (%d)" % (tag, name, a))

    # Without the library's source tree the benchmark must refuse to run.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, "rank", args.seed, 1, 0)
    shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           "bare tree: run.py fails without printing a result")


if __name__ == "__main__":
    main()
