#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
ILPS libraries and the perfbench binary from source into .bench_build/
(CMake, Release); later runs only re-check the build. The binary runs
the named workload and prints, as its last line, the JSON result
{"correct", "attempted", "failed", "metrics"}. Each run also writes a
result record with the host fingerprint under .bench_build/results/.
Exits non-zero, without a result, if the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
WORKLOADS = ("fig1", "dispatch", "interlang", "serve")


def source_rev():
    """The git revision if this is a git checkout, else a hash of the
    sources the benchmark builds (src/ and perfbench/)."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src:" + digest.hexdigest()[:12]


def clean_env():
    """The environment for the build and the run: compiler temporaries stay
    inside the checkout, and no ILPS_* runtime knob leaks into a measurement."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ILPS_")}
    env["TMPDIR"] = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build(env):
    """Configures (once) and builds perfbench; returns the binary path."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            + generator, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        env = clean_env()
        binary = build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(RESULTS_DIR, exist_ok=True)
    record = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", source_rev(), "--record", record]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
