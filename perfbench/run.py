#!/usr/bin/env python3
"""Builds the simulator from source and runs one benchmark workload.

    python3 perfbench/run.py --workload fig5_serial --seed 1 --seconds 25 \
        --trace 0

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The benchmark
unsets every HETSIM_* variable before it simulates, so the simulator runs its
default exact tier. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
print the host record and every metric by name and unit. See README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fig5_serial", "fig5_parallel", "comm_sweep")
DEFAULT_SEED = 1
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/CMakeLists.txt", "refs/tolerances.cfg",
            "refs/golden/fig5.csv", "refs/golden/ablation_comm_latency.txt",
            "perfbench/refs/comm_sweep.csv")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures once, then builds incrementally; returns the binary."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out)])
    steps.append(["cmake", "--build", str(out), "--target", "hetsim_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build failed: {err}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "hetsim_perfbench"


def revision():
    """The git revision, or a digest of src/ when there is no repository."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=0,
                        help="comm_sweep only: run the first N points")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        fail("not a hetsim source tree (missing " + ", ".join(missing) + ")")

    binary = build()

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--revision", revision(),
           "--spans", str(build_dir() / f"spans-{args.workload}.jsonl")]
    if args.limit:
        cmd += ["--limit", str(args.limit)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within 170 s", 1)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}", 1)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(done.stdout)
        fail("benchmark printed no result line", 1)
    if set(result) != RESULT_KEYS:
        fail(f"result has keys {sorted(result)}", 1)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
