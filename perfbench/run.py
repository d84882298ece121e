#!/usr/bin/env python3
"""Builds the vupred benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds `perfbench/` (which pulls in `src/`)
under `.bench_build/perfbench`; later runs only rebuild what changed. Each
run gets a private scratch directory under `.bench_build/tmp`, removed when
the run ends. The benchmark binary's report goes to stdout, ending with one
JSON line: {"correct", "attempted", "failed", "metrics"}. Build output goes
to stderr. Any build failure, correctness failure or crash exits non-zero.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench_vupred")
WORKLOADS = ("serve_hot", "serve_cold", "walkforward_eval", "nightly_publish")
RUN_TIMEOUT_S = 170


def cached_source_dir():
    """The source directory a previous configure of BUILD used, if any."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(env):
    cached = cached_source_dir()
    moved = cached is not None and (
        os.path.realpath(cached) != os.path.realpath(SOURCE))
    if moved:
        shutil.rmtree(BUILD, ignore_errors=True)
        cached = None
    steps = []
    if cached is None:
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--parallel", "4",
                  "--target", "perfbench_vupred"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    # Compiler and program temporaries stay inside the checkout too.
    scratch = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        run = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(run.stdout)
    if run.returncode != 0:
        print("perfbench: benchmark exited with %d" % run.returncode,
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
