#!/usr/bin/env python3
"""Builds and runs the PASTA end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (CMake, Release) under $CARGO_TARGET_DIR, or .bench_build
when it is unset; later calls only rebuild what changed. The benchmark
binary runs inside <build dir>/perfbench-run, where it keeps its
sockets, captures, fleet reports and span files. Its last stdout line
is the JSON result; build output goes to stderr.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: configure failed")
    built = subprocess.run(["cmake", "--build", build, "--target", "perfbench", "-j", jobs],
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")

    # Relative paths inside the run directory keep socket paths short.
    run_dir = os.path.join(build_root, "perfbench-run")
    os.makedirs(run_dir, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    sys.stdout.flush()
    result = subprocess.run([binary] + sys.argv[1:], cwd=run_dir)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
