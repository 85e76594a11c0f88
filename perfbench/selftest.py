#!/usr/bin/env python3
"""Determinism self-test of the repository benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a checkout. For each workload (default: all), runs
a fixed amount of work twice with one seed and once with another, and
checks that:
  - the two same-seed runs report identical work counts (simplex pivots
    and solves, tree search nodes, simulated accesses, serve requests
    by verb) and the same summed avg_max_delay;
  - the other seed gives different counts, i.e. different inputs.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import subprocess
import sys

import run

# Fixed work per workload: --rounds for the solve and scenario
# workloads; for serve-mixed, the light and heavy steps of a short plan.
WORK = {
    "lp-general": ["--rounds", "1", "--seconds", "0"],
    "tree-scale": ["--rounds", "1", "--seconds", "0"],
    "geo-scenario": ["--rounds", "1", "--seconds", "0"],
    "serve-mixed": ["--rounds", "2", "--seconds", "2"],
}
SEED_A, SEED_B = 11, 12


def counts(workload, seed):
    out = subprocess.run(
        [run.EXE, "--workload", workload, "--seed", str(seed), "--trace", "0"]
        + WORK[workload],
        capture_output=True, text=True, env=run.env(), timeout=300)
    if out.returncode != 0:
        raise SystemExit("%s: exit code %d" % (workload, out.returncode))
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if res["failed"] != 0:
        raise SystemExit("%s: %d failed operations" % (workload, res["failed"]))
    return res["counts"]


def main():
    workloads = sys.argv[1:] or list(WORK)
    run.build()
    ok = True
    for w in workloads:
        a1, a2, b = counts(w, SEED_A), counts(w, SEED_A), counts(w, SEED_B)
        same = a1 == a2
        differ = a1 != b
        ok = ok and same and differ
        print("%-13s same seed identical: %-5s other seed differs: %-5s %s"
              % (w, same, differ, json.dumps(a1, sort_keys=True)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
