#!/usr/bin/env python3
"""End-to-end benchmark of the fusion simulator.

Builds the fusion library and the fusionbench binary from this
checkout (Release, into .bench_build/fusionbench), runs one workload
in one process and prints one JSON object as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Run from the repository root:

    python3 fusionbench/run.py --workload fig6b-paper --seed 1 \\
        --seconds 20 --trace 0
    python3 fusionbench/run.py --smoke    # all workloads, small scale

See fusionbench/README.md for the workloads, metrics and drift
correction.
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "fusionbench"
BINARY = BUILD_DIR / "fusionbench"
# The binary must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; False on failure."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR.parent / "fusionbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B",
                          str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr,
                                  stderr=sys.stderr)
            if done.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return BINARY.exists()


def run_binary(args):
    """Run fusionbench; return (result dict, reference checksums)."""
    try:
        done = subprocess.run([str(BINARY)] + args,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"fusionbench did not finish within {RUN_TIMEOUT_S} s")
        return None, {}
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"fusionbench exited with {done.returncode}")
        return None, {}
    checksums = dict(re.findall(
        r"reference checksum (\d+) units ([0-9a-f]{16})", done.stderr))
    return json.loads(lines[-1]), checksums


def common_args(workload, calib, workdir):
    """Drift-correction and scratch-directory arguments."""
    return ["--r0", repr(calib["r0"]), "--drift-exponent",
            repr(calib["drift_exponent"][workload]),
            "--workdir", str(workdir)]


def check(result, checksums, calib, expected):
    """Return a list of problems with one binary result."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"unexpected result keys {sorted(result)}")
        return problems
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(expected) - set(got))}, extra "
            f"{sorted(set(got) - set(expected))}, units "
            f"{sorted(n for n in got if n in expected and got[n] != expected[n])}")
    for units, value in checksums.items():
        want = calib["ref_checksums"].get(units)
        if want != value:
            problems.append(f"reference kernel checksum for {units} "
                            f"units is {value}, expected {want}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at Scale::Small in both "
                         "modes and check every named metric")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    calib = json.loads((BENCH_DIR / "calibration.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if not args.smoke and args.workload not in workloads:
        ap.error(f"--workload must be one of {workloads}")

    if not build():
        return 2

    workdir = ROOT / ".bench_build" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            return smoke(workloads, metrics, calib, workdir)
        base = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace",
                str(args.trace)] + common_args(args.workload, calib,
                                                workdir)
        if args.trace:
            spans = ROOT / ".bench_build" / (
                f"spans-{args.workload}-{args.seed}.json")
            base += ["--spans", str(spans)]
        result, checksums = run_binary(base)
        if result is None:
            return 3
        problems = check(result, checksums, calib, metrics[args.trace])
        if problems:
            for p in problems:
                log(f"FAIL {p}")
            result["correct"] = False
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke(workloads, metrics, calib, workdir):
    """Every workload, both modes, small scale against small goldens."""
    ok = True
    for name in workloads:
        for trace in (0, 1):
            result, checksums = run_binary(
                ["--workload", name, "--seed", "1", "--seconds", "0.5",
                 "--trace", str(trace), "--small"]
                + common_args(name, calib, workdir))
            problems = (["no result"] if result is None else
                        check(result, checksums, calib, metrics[trace]))
            if result is not None and not result["correct"]:
                problems.append("outputs differ from the goldens")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {name} trace={trace}: {status}", flush=True)
            ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
