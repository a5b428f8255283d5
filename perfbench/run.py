#!/usr/bin/env python3
"""Runs one workload of the fegen pipeline benchmark.

Usage, from the root of a fegen checkout:

    python3 perfbench/run.py --workload measure --seed 1 --seconds 10 --trace 0

Builds the `fegen` binary and the benchmark harness (`perfbench/harness`)
in release mode into `$CARGO_TARGET_DIR` (default `.bench_build`), runs the
harness, checks that its result line names exactly the metrics
`BENCHMARK.json` declares, and prints that line last on stdout. Build
output and diagnostics go to stderr. See `perfbench/README.md`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
HARNESS_MANIFEST = os.path.join(BENCH_DIR, "harness", "Cargo.toml")
# A harness still running after this long is killed and the run fails.
HARNESS_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 2)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    common = ["cargo", "build", "--release", "--offline", "--locked", "--quiet"]
    for extra in (["--bin", "fegen"], ["--manifest-path", HARNESS_MANIFEST]):
        result = subprocess.run(common + extra, cwd=ROOT, env=env, stdout=sys.stderr)
        if result.returncode != 0:
            fail(f"build failed: {' '.join(common + extra)}")


def check_result(line, expected):
    """The harness's result line must carry exactly the declared metrics."""
    try:
        result = json.loads(line)
    except ValueError as e:
        fail(f"the harness printed no result line ({e})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        fail(f"result metrics {got} do not match BENCHMARK.json {want}")


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    for needed in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "core", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{ROOT} is not a fegen checkout: {needed} is missing", 2)
    if shutil.which("cargo") is None:
        fail("cargo is not on PATH", 2)

    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    work = os.path.join(target_dir, "perfbench-work", str(os.getpid()))
    command = [
        os.path.join(release, "perfbench-harness"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--fegen", os.path.join(release, "fegen"),
        "--work", work,
    ]
    try:
        result = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=HARNESS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"the harness did not finish within {HARNESS_TIMEOUT_S} s")
    shutil.rmtree(work, ignore_errors=True)
    if result.returncode != 0:
        fail(f"the harness exited with {result.returncode}")
    lines = result.stdout.strip().splitlines()
    if not lines:
        fail("the harness printed nothing")
    check_result(lines[-1], spec["per_layer"] if args.trace else spec["end_to_end"])
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
