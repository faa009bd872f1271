#!/usr/bin/env python3
"""The benchmark's own test, on a reduced comm_sweep point set.

    python3 perfbench/selftest.py

Checks that
  * the per-layer counts repeat exactly across traced runs with different
    seeds (the simulator is deterministic and the seed only permutes the
    submission order);
  * the traced run's self times plus "other" add up to its wall time;
  * a timed run prints every end-to-end metric, all positive, and checks
    every point.
Exits 0 when all hold.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POINTS = 12
COUNT_UNITS = {"count", "bytes"}
END_TO_END = {"setup_s", "wall_s", "cpu_s", "sim_minst_per_s", "peak_rss_mb"}
# Spans under a point, with the standalone lint counted twice: the traced
# run lints once itself and once inside runLowered (whose share is
# subtracted from core.simulate_ms).
SELF_TIMES = ("core.build_ms", "core.lower_ms", "analysis.lint_ms",
              "analysis.lint_ms", "trace.expand_ms", "core.simulate_ms",
              "obs.collect_ms", "trace.replay_ms", "trace.other_ms")


def run(seed, trace, seconds=1):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench/run.py"), "--workload",
         "comm_sweep", "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--limit", str(POINTS)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().split("\n")[-1])


def main():
    failures = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    first, second = run(seed=1, trace=1), run(seed=2, trace=1)
    for result in (first, second):
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] == POINTS,
               f"traced run checks all {POINTS} points")

    counts = [name for name, m in first["metrics"].items()
              if m["unit"] in COUNT_UNITS]
    expect(len(counts) >= 15, f"{len(counts)} per-layer counts reported")
    for name in counts + ["memfast.folded_share"]:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        expect(a == b, f"{name} repeats exactly ({a} vs {b})")

    for result in (first, second):
        m = result["metrics"]
        wall_ms = m["trace.wall_s"]["value"] * 1e3
        total = sum(m[name]["value"] for name in SELF_TIMES)
        expect(abs(total - wall_ms) <= 0.02 * wall_ms + 5,
               f"self times + other = {total:.1f} ms vs traced wall "
               f"{wall_ms:.1f} ms")

    timed = run(seed=3, trace=0)
    expect(timed["correct"] and timed["failed"] == 0
           and timed["attempted"] >= POINTS, "timed run checks every point")
    expect(set(timed["metrics"]) == END_TO_END,
           "timed run reports exactly the end-to-end metrics")
    expect(all(m["value"] > 0 for m in timed["metrics"].values()),
           "every end-to-end metric is positive")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
