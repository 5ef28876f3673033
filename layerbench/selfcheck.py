"""Self-check of the benchmark: each workload traced twice with one seed.

Usage (from the repository root)::

    python3 layerbench/selfcheck.py [--seed 7] [--seconds 4]

Checks, per workload:

* both traced runs pass every output check;
* the program's own counts repeat exactly between the two runs
  (``kernel.ops``, ``kernel.bytes``, ``encode.calls``,
  ``pipeline.evaluated``, ``distributed.shards``);
* warm distributed calls re-pack nothing and retry nothing;
* the workload still stresses the layer it was chosen for: that layer's
  self time is at least half of the traced call time.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

EXACT = ("kernel.ops", "kernel.bytes", "encode.calls", "pipeline.evaluated", "distributed.shards")
ZERO = ("distributed.warm_repacks", "distributed.retries")

#: The layer metrics whose sum must carry most of each workload's call time.
CHOSEN_LAYER = {
    "dense-k3": ("kernel.busy_s",),
    "staged-perm": ("encode.busy_s", "engine.self_s", "pipeline.self_s"),
    "dist2": ("distributed.dispatch_s", "distributed.merge_s"),
}
MIN_SHARE = 0.5


def traced(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, runs: list[dict]) -> list[str]:
    problems = []
    values = [{k: v["value"] for k, v in run["metrics"].items()} for run in runs]
    for i, run in enumerate(runs):
        if not run["correct"] or run["failed"]:
            problems.append(f"run {i + 1}: output checks failed ({run['failed']} calls)")
    for key in EXACT:
        if values[0][key] != values[1][key]:
            problems.append(f"{key} did not repeat: {values[0][key]} vs {values[1][key]}")
    for key in ZERO:
        for v in values:
            if v[key] != 0:
                problems.append(f"{key} = {v[key]}, expected 0")
    for v in values:
        share = sum(v[key] for key in CHOSEN_LAYER[workload]) / v["trace.call_p50_s"]
        print(f"  {workload}: {' + '.join(CHOSEN_LAYER[workload])} = {share:.1%} of the call")
        if share < MIN_SHARE:
            problems.append(f"chosen layer carries only {share:.1%} of the call")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=4)
    args = parser.parse_args()
    failed = False
    for workload in CHOSEN_LAYER:
        runs = [traced(workload, args.seed, args.seconds) for _ in range(2)]
        problems = check(workload, runs)
        for problem in problems:
            print(f"  {workload}: FAIL {problem}")
        failed |= bool(problems)
        print(f"{workload}: {'FAIL' if problems else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
