#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md next to this file).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds ../src plus the benchmark with CMake
(Release) under .bench_build/perfbench; later runs only re-check the build.
Build output goes to standard error. The statistics self-test runs before
every measurement. The benchmark's own standard output passes through, so
its last line is the JSON result. Exits non-zero if the build, the
self-test, a correctness check or any operation fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
BUILD = os.path.join(OUT, "perfbench")
JOBS = "4"


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", JOBS, "--target",
         "restune_perfbench", "perfbench_stats_test"],
        stdout=sys.stderr, check=True)
    subprocess.run([os.path.join(BUILD, "perfbench_stats_test")],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build or self-test failed: {err}", file=sys.stderr)
        return 1
    bench = os.path.join(BUILD, "restune_perfbench")
    tmp_dir = os.path.join(OUT, "tmp")
    return subprocess.run([bench, *sys.argv[1:], "--tmp-dir", tmp_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
