#!/usr/bin/env python3
"""Build and run the layered benchmark.

    python3 perfbench/run.py --workload serve_mix|churn|fabric_failover \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
simulator's libraries plus the benchmark (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default: .bench_build/perfbench), runs the
statistics self-test, then runs the benchmark. Later calls rebuild only
what changed. Build output goes to stderr; stdout carries the benchmark's
report line and, last, its result line.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails loudly."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    build_dir = os.path.join(target_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", build_dir, "--parallel", "4"])
    run_quiet([os.path.join(build_dir, "perfbench_selftest")])
    return os.path.join(build_dir, "perfbench")


def main():
    binary = build()
    proc = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}", proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
