#!/usr/bin/env python3
"""Builds and runs the MTL-Split pipeline benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload edge_closed --seed 1 --seconds 20 --trace 0

The benchmark is the `perfbench` Rust package in this directory; this script
builds it in release mode (into `$CARGO_TARGET_DIR`, default
`perfbench/target`), runs it, checks that its result line names exactly the
metrics `BENCHMARK.json` lists, and relays its output. The last line of
standard output is the result: one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The full report of each run, and the
Chrome trace of a traced run, are written under `<target>/perfbench-out/`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Whole-run limit for one invocation after the first build.
RUN_LIMIT_S = 175.0


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit if this is a git checkout, else a hash of the sources."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if head.returncode == 0 and head.stdout.strip():
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "src", ROOT / "crates", BENCH_DIR]
    for base in roots:
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for path in files:
            if path.is_file() and "target" not in path.relative_to(ROOT).parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    target = Path(os.environ.get("CARGO_TARGET_DIR", BENCH_DIR / "target"))
    if not target.is_absolute():
        target = ROOT / target
    started = time.monotonic()
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
        cwd=ROOT,
        env={**os.environ, "CARGO_TARGET_DIR": str(target)},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with code {build.returncode}")
    build_s = time.monotonic() - started

    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(target / "perfbench-out"),
        "--source-id", source_id(),
    ]
    # The first run of a checkout may spend most of its time building.
    limit = max(RUN_LIMIT_S - build_s, args.seconds * 3 + 30)
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=limit)
    except subprocess.TimeoutExpired as err:
        sys.stderr.write(err.stdout or "")
        fail(f"the benchmark did not finish within {limit:.0f} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"the benchmark exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("the benchmark's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"result metrics differ from BENCHMARK.json {section}: "
             f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
