#!/usr/bin/env python3
"""Build the vsched CLI and the benchmark from source, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <paper_sweep|churn_1000vm|env_episodes> \
        --seed <n> --seconds <n> --trace <0|1>

Build output goes to stderr; the benchmark's report goes to stdout and ends
with one JSON result line. Artifacts land in $CARGO_TARGET_DIR (default
`.bench_build`). Exits non-zero, printing no result, if either build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(*args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    # The remote-agent leg runs the real `vsched env --agent`, so the CLI
    # binary is built next to the benchmark's.
    if not cargo_build("--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "vsched-cli"):
        sys.exit("perfbench: building vsched-cli failed")
    if not cargo_build("--manifest-path", os.path.join(HERE, "Cargo.toml")):
        sys.exit("perfbench: building the benchmark failed")
    binary = os.path.join(target, "release", "perfbench")
    sys.exit(subprocess.run([binary, *sys.argv[1:]], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
