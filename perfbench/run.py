#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload spec-fig10 --seed 1 --seconds 20 --trace 0

Workloads: spec-fig10, crono-fig15-store, service-fleet. The build goes to
$CARGO_TARGET_DIR (default .bench_build); stores and other scratch files go
under .bench_build/perfbench-work and are removed when the run ends. Cargo's
output goes to stderr, so the last line of stdout is the result object.
Exits non-zero when the build fails, the arguments are wrong, or any
correctness check fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.abspath(os.path.join(".bench_build", "perfbench-work"))
    return subprocess.run([exe, *sys.argv[1:], "--work-dir", work]).returncode


if __name__ == "__main__":
    sys.exit(main())
