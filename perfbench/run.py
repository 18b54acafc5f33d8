#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the root of the repository. The binary is built with cargo
into $CARGO_TARGET_DIR (default: .bench_build). The last line of standard
output is the run's JSON result. A run record with the inputs' shape, the
effective ServiceConfig and a machine fingerprint is written to
.bench_out/<workload>-seed<n>-trace<t>.json, and a traced run also writes
its spans next to it. The exit code is non-zero when the build fails, when
an oracle disagrees, or when the run exceeds its time limit.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def capture(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": capture(["rustc", "-V"]),
        "git_rev": capture(["git", "rev-parse", "HEAD"]),
    }


def build(env):
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return False


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true", help="run the oracle self-test at tiny size")
    args = p.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        p.error("--workload and --seed are required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")

    if args.selftest:
        return subprocess.run([exe, "selftest"], cwd=ROOT).returncode

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    record = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(record):
        with open(record) as f:
            data = json.load(f)
        data["machine"] = fingerprint()
        with open(record, "w") as f:
            json.dump(data, f, indent=1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
