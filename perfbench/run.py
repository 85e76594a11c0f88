#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/qpbench.exe from
source with dune, measures set-up time over several fresh processes,
runs the workload once in its own process, and prints the workload's
metric table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the spans to .perfbench/spans-<workload>-<seed>.jsonl).
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ["lp-general", "tree-scale", "serve-mixed", "geo-scenario"]
EXE = os.path.join("_build", "default", "perfbench", "qpbench.exe")
OUT_DIR = ".perfbench"
SETUP_PROBES = 15
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def env():
    e = dict(os.environ)
    # Keep every write inside the checkout: no shared dune cache.
    e["DUNE_CACHE"] = "disabled"
    e["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(OUT_DIR, "cache"))
    return e


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a quorum_placement checkout")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        die("neither dune nor opam found on PATH")
    r = subprocess.run(
        dune + ["build", "--root", ".", "./perfbench/qpbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env(), timeout=800)
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def run_exe(args):
    """Run qpbench.exe; return (stdout lines, last-line JSON)."""
    proc = subprocess.Popen([EXE] + args + ["--t0", repr(time.time())],
                            stdout=subprocess.PIPE, env=env(), text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("workload timed out")
    if proc.returncode != 0:
        die("workload exited with code %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        die("workload printed nothing")
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    base = ["--workload", a.workload, "--seed", str(a.seed)]
    setups = []
    if a.trace == 0:
        for _ in range(SETUP_PROBES):
            _, probe = run_exe(base + ["--seconds", "0", "--setup-probe"])
            setups.append(probe["setup_s"])
    run = base + ["--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace == 1:
        run += ["--spans", os.path.join(
            OUT_DIR, "spans-%s-%d.jsonl" % (a.workload, a.seed))]
    lines, res = run_exe(run)
    metrics = res["metrics"]
    if a.trace == 0:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    for line in lines:
        print(line)
    if a.trace == 0:
        print("setup_s median of %d processes: %r s" % (len(setups), metrics["setup_s"]["value"]))
    print("counts " + json.dumps(res["counts"], sort_keys=True))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
