#!/usr/bin/env python3
"""Builds the perfbench package from source and runs one benchmark run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR, or to .bench_build at the repository
root when that is unset. The run is pinned to one CPU, the highest this
process may use, together with the engine processes it starts: a campaign
runs on one worker and waits on its out-of-process engine, and wake-ups
across CPUs made the matrix's times vary by 18% between runs, against 5%
pinned. Build output goes to standard error; the benchmark's result is the
last line of standard output. Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
