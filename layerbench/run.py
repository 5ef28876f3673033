"""The repository benchmark: one seeded closed loop per workload.

Usage (from the repository root)::

    python3 layerbench/run.py --workload dense-k3 --seed 1 --seconds 15 --trace 0

Each run generates the workload's dataset from ``--seed``, computes the
expected outputs once with the ``cpu-v2`` oracle, then times the program
in fresh processes: several set-ups with their first calls, and one warm
closed loop (one caller; each call starts when the previous returns) for
``--seconds``.  Every call's output is checked.  All timings are reported
in reference seconds (probe.py); ``--trace 1`` instead runs the traced
loop of layers.py and reports the per-layer metrics.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "first_call_s": "s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "elements_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "setup.import_s": "s",
    "setup.load_s": "s",
    "setup.construct_s": "s",
    "encode.calls": "count",
    "encode.busy_s": "s",
    "encode.bytes": "B",
    "encode.cache_hit_ratio": "ratio",
    "enumerate.busy_s": "s",
    "enumerate.combos": "count",
    "kernel.calls": "count",
    "kernel.busy_s": "s",
    "kernel.combos": "count",
    "kernel.elements_per_busy_s": "1/s",
    "kernel.chunk_p50_s": "s",
    "kernel.ops": "count",
    "kernel.bytes": "B",
    "kernel.ops_per_byte": "ratio",
    "kernel.working_set_bytes": "B",
    "score.busy_s": "s",
    "score.tables": "count",
    "engine.runs": "count",
    "engine.chunks": "count",
    "engine.self_s": "s",
    "engine.self_frac": "ratio",
    "pipeline.screen_s": "s",
    "pipeline.expand_s": "s",
    "pipeline.permutation_s": "s",
    "pipeline.self_s": "s",
    "pipeline.evaluated": "count",
    "pipeline.evaluated_fraction": "ratio",
    "distributed.spawn_s": "s",
    "distributed.publish_s": "s",
    "distributed.attach_s": "s",
    "distributed.dispatch_s": "s",
    "distributed.shard_run_busy_s": "s",
    "distributed.dispatch_wait_s": "s",
    "distributed.merge_s": "s",
    "distributed.shards": "count",
    "distributed.parallel_eff": "ratio",
    "distributed.speedup_vs_inline": "ratio",
    "distributed.retries": "count",
    "distributed.warm_repacks": "count",
    "distributed.segments_reused": "count",
    "perfmodel.residual": "ratio",
    "trace.overhead": "ratio",
    "trace.call_p50_s": "s",
    "host.probe_s": "s",
    "host.probe_inflation": "ratio",
    "raw.call_p50_s": "s",
}

#: In-loop probe / fresh-process probe above this fails the run: the program
#: is slowing the host between calls (e.g. workers left busy), which would
#: otherwise make its own normalised times look better.
MAX_PROBE_INFLATION = 1.5

CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Runs child.py roles in fresh processes with a pinned environment."""

    def __init__(self, work: Path, base_cfg: dict) -> None:
        self.work = work
        self.base_cfg = base_cfg
        self.n = 0
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
            REPRO_TELEMETRY="off",
            REPRO_FUSED="auto",
            REPRO_BACKEND="numpy",
            REPRO_FAULTS="",
            # Fixed string hashing: one per-process source of variation less.
            PYTHONHASHSEED="0",
            # A fresh, per-run calibration store: neither the shell nor an
            # earlier run's measurements can steer the program under test.
            REPRO_CALIBRATION_PATH=str(work / "calibration.json"),
        )
        self.env = env

    def __call__(self, mode: str, **extra) -> dict:
        self.n += 1
        cfg_path = self.work / f"{self.n:02d}-{mode}.json"
        cfg_path.write_text(json.dumps({**self.base_cfg, **extra}))
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, str(cfg_path)],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    pct = max(50, (100 * (n - 10)) // n) if n else 50
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def adjacent(raws: list[float], probes: list[float]) -> list[float]:
    """Reference seconds of call i, scaled by the probes either side of it."""
    from probe import normalise

    return [normalise(raw, (probes[i] + probes[i + 1]) / 2) for i, raw in enumerate(raws)]


def end_to_end(runner: Runner, workload, seconds: float):
    """Fresh loop processes between two fresh probes, their calls pooled.

    Each process times its set-up and first call, then runs an equal share
    of the warm loop's ``seconds``.  The fresh probes (no program loaded)
    run right before and after the loops, so slow drift of the host across
    the run does not read as inflation.
    """
    from probe import normalise

    fresh = runner("probe")["probes"]
    loops = [
        runner("loop", seconds=seconds / workload.processes) for _ in range(workload.processes)
    ]
    fresh += runner("probe")["probes"]

    setup_s = [normalise(p["setup_raw"], p["setup_probe"]) for p in loops]
    first_s = [
        normalise(p["first_raw"], (p["setup_probe"] + p["first_probe_after"]) / 2)
        for p in loops
    ]
    warm = [t for p in loops for t in adjacent(p["warm_raw"], p["warm_probes"])]
    attempted = len(loops) + len(warm)
    failed = sum(not p["first_ok"] for p in loops)
    failed += sum(not ok for p in loops for ok in p["warm_ok"])
    leftovers = sum(p["leftover_segments"] for p in loops)
    if leftovers:
        sys.stderr.write(f"{leftovers} shared-memory segment(s) left after the run\n")
        failed += 1
    for p in loops:
        for failure in p["failures"]:
            sys.stderr.write(f"call failed: {failure}\n")
    tail_s, tail_pct = tail(warm)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "first_call_s": statistics.median(first_s),
        "call_p50_s": statistics.median(warm),
        "call_tail_s": tail_s,
        "elements_per_s": sum(p["warm_elements"] for p in loops) / sum(warm),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in loops),
    }
    notes = {
        "setup_s": f"median of {len(setup_s)} fresh processes",
        "first_call_s": f"median of {len(first_s)} fresh processes",
        "call_p50_s": f"{len(warm)} warm calls in {len(loops)} processes",
        "call_tail_s": f"p{tail_pct} of {len(warm)} warm calls",
    }
    in_loop = [probe for p in loops for probe in p["warm_probes"]]
    inflation = statistics.median(in_loop) / statistics.median(fresh)
    return metrics, notes, attempted, failed, inflation


def traced(runner: Runner, seconds: float):
    fresh = runner("probe")["probes"]
    doc = runner("trace", seconds=seconds)
    fresh += runner("probe")["probes"]
    metrics = dict(doc["layers"])
    failed = len(doc["failures"]) + (1 if doc["leftover_segments"] else 0)
    for failure in doc["failures"]:
        sys.stderr.write(f"call failed: {failure}\n")
    metrics["host.probe_inflation"] = statistics.median(doc["probes"]) / statistics.median(fresh)
    return metrics, {}, doc["attempted"], failed, metrics["host.probe_inflation"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing\n")
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, write_dataset

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".layerbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        npz = work / "dataset.npz"
        planted = write_dataset(workload, args.seed, npz)
        runner = Runner(
            work,
            {"workload": workload.name, "npz": str(npz), "reference": str(work / "reference.json")},
        )
        agree = runner("reference")["agree"]
        if args.trace:
            metrics, notes, attempted, failed, inflation = traced(runner, args.seconds)
        else:
            metrics, notes, attempted, failed, inflation = end_to_end(
                runner, workload, args.seconds
            )
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark could not run: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if not agree:
        sys.stderr.write("oracle and in-process results disagree\n")
        failed += 1
    guard_ok = inflation <= MAX_PROBE_INFLATION
    if not guard_ok:
        sys.stderr.write(
            f"probe inflated {inflation:.2f}x between calls (limit {MAX_PROBE_INFLATION})\n"
        )
    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {workload.name}  seed {args.seed}  planted {planted}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {metrics[name]:>16.6g} {unit}{note}")
    print(f"  probe inflation {inflation:.3f}  attempted {attempted}  failed {failed}")
    result = {
        "correct": failed == 0 and guard_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
