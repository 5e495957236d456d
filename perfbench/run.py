#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the root of the repository. The two binaries are built in release
mode into $CARGO_TARGET_DIR (default: .bench_build). --trace 0 runs
perfbench-timed (end-to-end metrics), --trace 1 perfbench-traced (per-layer
metrics). The last line of standard output is the JSON result; build output
goes to standard error. See perfbench/README.md.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    args = sys.argv[1:]
    trace = "0"
    for flag, value in zip(args, args[1:]):
        if flag == "--trace":
            trace = value
    if trace not in ("0", "1"):
        print(f"perfbench: --trace must be 0 or 1, not {trace!r}", file=sys.stderr)
        return 2
    binary = "perfbench-traced" if trace == "1" else "perfbench-timed"
    exe = os.path.join(target, "release", binary)
    work_dir = os.path.join(target, "perfbench-work")
    return subprocess.run([exe, *args, "--work-dir", work_dir], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
