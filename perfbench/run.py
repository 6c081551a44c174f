#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload linkbench-read --seed 1 --seconds 10 --trace 0

prints the benchmark's report line and, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics. --trace 1 prints the per-layer metrics instead of the end-to-end
ones and writes a Chrome trace under .bench_out/.

Repeat mode:
    python3 perfbench/run.py --workload linkbench-rw --seed 1 --seconds 10 --trace 0 --repeat 10

runs the workload once per seed (seed, seed+1, ...) and prints each
metric's median, quartiles and spread (interquartile range over median),
and for the end-to-end metrics whether the spread is within a third of
the bound BENCHMARK.json gives it.

The benchmark is a C++ program built from this checkout's sources with
CMake into .bench_build/perfbench (configured once, rebuilt incrementally).
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BUILD_TIMEOUT_S = 700  # with one run, under the 900 s a first run may take
RUN_TIMEOUT_S = 170  # a run must end within 180 s
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def configured_for_this_checkout():
    cache = BUILD / "CMakeCache.txt"
    if not cache.is_file():
        return False
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
            return Path(line.split("=", 1)[1]).resolve() == HERE
    return False


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no sources to build: {ROOT / 'src'} is missing")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not configured_for_this_checkout():
            shutil.rmtree(BUILD, ignore_errors=True)
            BUILD.mkdir(parents=True)
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    binary = BUILD / "perfbench"
    if not binary.is_file():
        raise RuntimeError("build produced no perfbench binary")
    return binary


def run_once(binary, workload, seed, seconds, trace):
    """Runs the benchmark once; returns (stdout lines, parsed result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(OUT)]
    # subprocess.run kills the child on timeout and waits for it to end.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise RuntimeError(f"unexpected result keys {sorted(result)}")
    return lines, result


def summarize(runs, trace):
    """Median, quartiles and spread of every metric over the runs."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        spec = {}
    bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0], None, values[0]))
        entry = {"median": median, "q1": q1, "q3": q3,
                 "spread": (q3 - q1) / median if median else None,
                 "unit": runs[0]["metrics"][name]["unit"]}
        bound = bounds.get(name) if not trace else None
        if bound is not None and entry["spread"] is not None:
            entry["bound"] = bound
            entry["within_third_of_bound"] = entry["spread"] < bound / 3
        summary[name] = entry
        log(f"{name:36s} median {median:14.4f}  q1 {q1:14.4f}  "
            f"q3 {q3:14.4f}  spread {entry['spread'] if entry['spread'] is not None else float('nan'):.4f}"
            + (f"  bound/3 {bound / 3:.4f}" if bound is not None else ""))
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs, one per seed from --seed upwards")
    args = parser.parse_args()
    try:
        binary = build()
        if args.repeat <= 1:
            lines, _ = run_once(binary, args.workload, args.seed,
                                args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            return 0
        runs = []
        for i in range(args.repeat):
            lines, result = run_once(binary, args.workload, args.seed + i,
                                     args.seconds, args.trace)
            print("\n".join(lines), file=sys.stderr, flush=True)
            log(f"seed {args.seed + i}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}")
            runs.append(result)
        summary = {
            "workload": args.workload,
            "seeds": [args.seed + i for i in range(args.repeat)],
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
            "metrics": summarize(runs, args.trace),
        }
        print(json.dumps(summary), flush=True)
        return 0
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
