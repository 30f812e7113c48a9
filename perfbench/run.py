#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the release `aeetes` binary and the
`perfbench` program from source (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs `perfbench`, whose last stdout line is the JSON
result. Working files go under `.bench_build/perfbench/work` and are removed
when a run ends; per-run results and spans stay in
`.bench_build/perfbench/results`.

    python3 perfbench/run.py --selftest

builds the same way and runs the benchmark's own tests.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "aeetes-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr, timeout=1500)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    try:
        env = build(target)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    aeetes = os.path.join(target, "release", "aeetes")
    if args.selftest:
        env["AEETES_BIN"] = aeetes
        cmd = ["cargo", "test", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"]
        return subprocess.run(cmd, cwd=ROOT, env=env).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    base = os.path.join(target, "perfbench")
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--aeetes", aeetes,
        "--out", os.path.join(base, "results"),
        "--work", os.path.join(base, "work"),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
