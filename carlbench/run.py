#!/usr/bin/env python3
"""Builds and runs the CaRL benchmark.

    python3 carlbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a CaRL source tree. The first call configures and
builds carlbench (Release) and the engine libraries it links into
.bench_build/; later calls rebuild only what changed. The benchmark's
own output, ending in one JSON result line, goes to stdout; build output
goes to .bench_build/build.log. `--workload all` runs the workloads in
turn, each ending in its own result line. Exits non-zero, printing no
further result, when the tree cannot be built or a run fails.
WORKLOADS.md describes the workloads and metrics.
"""

import argparse
import fcntl
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "carlbench")
BINARY = os.path.join(BUILD_DIR, "carlbench")
RUN_LIMIT_S = 175
WORKLOADS = ["serve_mix", "ingest_query"]


def fail(message, code):
    print("carlbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds; returns True when anything was run."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CaRL source tree at " + ROOT, 2)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "carlbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step), 3)


def run(workload, args):
    start = time.monotonic()
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--trace-dir", trace_dir]
    # One engine thread unless the caller says otherwise: the host lends
    # this machine a varying number of cores, and a one-thread engine's
    # speed varies least with it (WORKLOADS.md, "Machine").
    env = dict(os.environ)
    env.setdefault("CARL_THREADS", "1")
    try:
        # subprocess.run kills and reaps the child when the limit passes.
        code = subprocess.run(command, cwd=ROOT, env=env,
                              timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_LIMIT_S, 4)
    if code != 0:
        fail("run failed with exit code %d after %.1f s"
             % (code, time.monotonic() - start), 5)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"],
                        help="one workload, or all in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build()
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run(workload, args)


if __name__ == "__main__":
    main()
