#!/usr/bin/env python3
"""Builds and runs the end-to-end PGEMM benchmark.

    python3 perfbench/run.py --workload square --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark package (perfbench/Cargo.toml)
builds against the repository's crates by path, in release mode, into
$CARGO_TARGET_DIR (default .bench_build). Cargo's output goes to standard
error; the benchmark's standard output is passed through, so its last line
is the JSON result. Exits nonzero, without a result, when the repository
sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    for needed in ("Cargo.toml", "crates", "results"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write(f"perfbench: {needed} not found next to perfbench/; "
                             "run from a full checkout of the repository\n")
            return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        return 2
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                          "release", "perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
