#!/usr/bin/env python3
"""End-to-end diagnosis-request benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the root of an m3dfl checkout. Builds e2e_gen and e2e_run (with the
library) under $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench),
makes the workload's inputs from the seed in one process, serves them in a
second, measured process, and prints that process's result as the last line
of stdout: one JSON object with correct, attempted, failed and metrics
(end-to-end with --trace 0, per-layer with --trace 1). With --trace 1 the
Chrome trace-event span file is written next to the run's inputs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tiny-bypass", "m3d100k-bypass", "tiny-compacted-repeat")
# Per-step limits that keep one run inside three minutes.
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 110


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2e_gen",
                    "e2e_run", "-j", "4"],
                   check=True, stdout=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, required=True, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    run_dir = os.path.join(build_dir, "runs", f"{a.workload}-seed{a.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    gen = [os.path.join(build_dir, "e2e_gen"), "--workload", a.workload,
           "--seed", str(a.seed), "--out", run_dir]
    run = [os.path.join(build_dir, "e2e_run"), "--workload", a.workload,
           "--inputs", run_dir, "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        run += ["--spans", os.path.join(run_dir, "spans.json")]
    try:
        subprocess.run(gen, check=True, timeout=GEN_TIMEOUT_S)
        out = subprocess.run(run, check=True, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True).stdout
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"failed: {e}")
        return 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("the measured process printed no result")
        return 1
    with open(os.path.join(run_dir, f"result-trace{a.trace}.json"), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
