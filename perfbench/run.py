#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mix-moses --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is a C++ program (perfbench/src) linked against the
repository's ubik_core. This script configures and builds it with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), an
incremental no-op once built, then runs it with the given arguments.
The program's standard output is passed through: a report, then one
JSON result line. Build output goes to standard error. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def build(build_dir, target):
    src = os.path.dirname(os.path.abspath(__file__))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    # Compiler and LTO temporaries stay inside the build tree too.
    os.environ["TMPDIR"] = os.path.join(root, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    if sys.argv[1:] == ["--self-test"]:
        if not build(build_dir, "perfbench_selftest"):
            return 1
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              cwd=build_dir).returncode
    if not build(build_dir, "ubik_bench"):
        return 1
    cmd = [os.path.join(build_dir, "ubik_bench")] + sys.argv[1:] + [
        "--work-dir", os.path.join(root, "perfbench-work"),
        "--out-dir", os.path.join(root, "perfbench-results")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
