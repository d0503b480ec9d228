#!/usr/bin/env python3
"""Build hippo_perfbench from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The first call configures and builds the library and the benchmark with
CMake (Release) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only check that the build is current.
Build output goes to standard error; the last line of standard output is
the benchmark's JSON result. Exits non-zero without a result when the
library sources are not next to this directory or the build fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("prover-sparse", "rewrite-dense", "churn-mixed")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no library sources (CMakeLists.txt, src/) "
                 "next to " + HERE)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=tmp_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
                sys.exit("perfbench: cmake configure failed")
        built = subprocess.run(
            ["cmake", "--build", build_dir, "--target", "hippo_perfbench",
             "-j", jobs], stdout=sys.stderr, env=env)
        if built.returncode:
            sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "hippo_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        # subprocess.run kills and reaps the child if the timeout expires.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
