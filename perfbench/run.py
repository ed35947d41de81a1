#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which builds the library
from ../src through the repository's own CMake project) into .bench_build/,
then runs one workload. The executable prints every metric by name with its
unit and ends with one JSON line; this script passes its output through and
checks that the last line is a well-formed result. Traced runs leave their
spans in .bench_build/traces/. Exits non-zero, without a result line, when
the benchmark cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build step failed:", e)
        return False
    return proc.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("no QCFE source tree next to perfbench/; nothing to build")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"], 300):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
                       "-j", jobs], 840) and os.path.isfile(BINARY)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def src_digest():
    """sha256 over every file under src/ (path and bytes): identifies the
    measured code when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS and
            isinstance(result["metrics"], dict) and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    work = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload, args.seed,
                                                     os.getpid()))
    traces = os.path.join(BUILD, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        shutil.rmtree(work, ignore_errors=True)
        return 1
    sys.stderr.write(proc.stderr)
    for name in os.listdir(work):
        if name.startswith("trace-"):
            shutil.move(os.path.join(work, name), os.path.join(traces, name))
            log("spans kept in", os.path.relpath(os.path.join(traces, name), ROOT))
    shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1] if lines else ""
    if body:
        print("\n".join(body))
    print("run.py: ran in %.1f s" % (time.monotonic() - started))
    if not valid_result(last):
        log("benchmark exited %d without a result" % proc.returncode)
        return proc.returncode or 1
    print(last, flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
