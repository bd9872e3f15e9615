#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
library and the benchmark from source into .bench_build/perfbench (later
calls only rebuild what changed), runs the benchmark's self-tests, then runs
one workload in a fresh process. The last line of standard output is the
workload's JSON result. Scratch files go to .bench_work/. Exits non-zero
without printing a result when the build, the self-tests or the run fail.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def check_environment():
    # The program reads ADAFGL_* variables in many places; any set from
    # outside would change what is measured.
    stray = sorted(k for k in os.environ if k.startswith("ADAFGL_"))
    if stray:
        fail("refusing to run with " + ", ".join(stray) + " set")


def build():
    if not os.path.isfile(os.path.join(HERE, "..", "CMakeLists.txt")):
        fail("no program source next to the benchmark; nothing to build")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if quiet(cmd) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    if quiet(["cmake", "--build", BUILD, "-j", BUILD_JOBS,
              "--target", "perfbench", "perfbench_selftest"]) != 0:
        fail("build failed")


def quiet(cmd):
    # Build output goes to stderr only on failure: stdout is the result.
    # Compiler temporaries stay inside the build tree.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         env=dict(os.environ, TMPDIR=tmp))
    if res.returncode != 0:
        sys.stderr.write(res.stdout.decode(errors="replace"))
    return res.returncode


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))


def main():
    check_environment()
    build()
    if run([os.path.join(BUILD, "perfbench_selftest")]) != 0:
        fail("self-tests failed")
    if sys.argv[1:] == ["--self-test"]:
        return
    os.makedirs(WORKDIR, exist_ok=True)
    code = run([os.path.join(BUILD, "perfbench")] + sys.argv[1:] +
               ["--workdir", WORKDIR])
    if code != 0:
        sys.exit(code)


if __name__ == "__main__":
    main()
