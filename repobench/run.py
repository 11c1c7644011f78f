#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 repobench/run.py --workload raa_sweep|rta_probe|trace_replay \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
simulator and the benchmark from source into .bench_build/ (building
also runs the benchmark's self-test); later runs only rebuild what
changed. Build output goes to stderr. With --trace 0 the last stdout
line holds the end-to-end metrics, with --trace 1 the per-layer metrics
(and the span file .bench_out/spans-<workload>-<seed>.json). The exit
code is nonzero, with no result printed, when the build fails, and
nonzero with "correct": false printed when an output check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
RUN_LIMIT_S = 170  # probes and the measuring process, after the build


def die(msg):
    print(f"repobench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(BUILD), "-j", jobs]):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=850)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        die(f"build failed: {e}")
    start = time.monotonic()
    binary = str(BUILD / "repobench")
    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]

    # Set-up time is what a user pays once per process, so each probe is
    # a fresh process; the median of several is reported.
    setup = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            probe = subprocess.run(base + ["--setup-probe"], capture_output=True,
                                   text=True, timeout=60)
            if probe.returncode != 0:
                die(f"setup probe failed: {probe.stderr.strip()}")
            setup.append(json.loads(probe.stdout.splitlines()[-1])["setup_ns"] / 1e9)

    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-{args.seed}.json")]
    remaining = RUN_LIMIT_S - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        die("run exceeded its time limit")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die(f"repobench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}

    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared_metrics(args.trace == 1):
        die("printed metrics differ from BENCHMARK.json")
    for line in lines[:-1]:
        print(line)
    if setup:
        print(f"  setup_s over {len(setup)} fresh processes: "
              + " ".join(f"{s * 1e3:.3f}" for s in sorted(setup)) + " ms")
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
