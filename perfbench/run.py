#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload hot_hits --seed 1 --seconds 10 --trace 0

Workloads: hot_hits and cold_tunes (the BENCHMARK.json workloads) and
mixed_fleet (see perfbench/main.cpp).

The first run configures and builds a Release tree in .bench_build (about
half a minute on 4 cores); later runs rebuild only what changed.  Before
every run the self-test of the benchmark's arithmetic must pass.  The
benchmark's output is passed through unchanged: '#' header lines, one
'metric' line per metric, and a JSON result as the last line.  The exit
status is the benchmark's, or 1 when the build or the self-test fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("hot_hits", "cold_tunes", "mixed_fleet")
# A run measures for --seconds and drains within 20 s; anything longer
# is a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def quiet(cmd):
    """Runs a build step with its output on stderr; stdout stays clean."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("harmony sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        quiet(configure)
    quiet(["cmake", "--build", BUILD, "-j", "4"])
    quiet([os.path.join(BUILD, "perfbench_selftest")])


def revision():
    """The git revision when there is one, and always a digest of the
    sources the benchmark built, so two runs name the code they timed."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
    return rev + "-src." + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--rev", revision()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    main()
