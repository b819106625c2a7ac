#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a cargo package of its own (perfbench/Cargo.toml). It is
built in release mode into $CARGO_TARGET_DIR (default perfbench/target) and
then run with the same arguments. A traced run (--trace 1) also writes its
op spans to perfbench/out/. The exit code and standard output are the
benchmark's own; the last line of a successful run is its JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + ["--spans-dir", os.path.join(HERE, "out")]
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
