"""The traced run: per-layer attribution from the benchmark's own files.

Nothing in the program is edited.  In-process layers are timed by
wrapping the public functions each layer exposes (class methods, so every
caller goes through the wrapper); distributed workers are spawned
processes the wrappers cannot reach, so their layers are read from the
spans the program already exports under ``telemetry="full"``.

Layer -> wrapped entry points:

* encode     ``Approach.prepare`` of every registered approach (binarization
             and bit packing run inside it); cache hits from
             ``core.encoding_cache.ENCODING_CACHE``
* enumerate  ``materialize`` of every ``engine.candidates`` source
* kernel     ``build_tables`` / ``score_combinations`` of every approach;
             working set from ``NumpyBackend.split_class_counts`` (computed)
* score      ``score`` of every ``core.scoring`` objective
* engine     ``engine.executor.HeterogeneousExecutor.run``
* pipeline   ``pipeline.SearchPipeline.run`` (stage times from its
             ``StageReport.elapsed_seconds``)
* merge      ``distributed.coordinator.merge_rows``

Each wrapper records *self* time: its call's wall time minus the time
other wrapped layers recorded while it ran, so layer times add up to at
most the call time.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict

from probe import normalise
from workloads import make_detector

LAYERS = ("encode", "enumerate", "kernel", "score", "engine", "pipeline", "merge")


def _array_bytes(obj, depth: int = 0) -> int:
    """Bytes of the NumPy arrays reachable from an encoding object."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if depth > 3:
        return 0
    fields = getattr(obj, "__dict__", None)
    if fields is None:
        return 0
    return sum(_array_bytes(value, depth + 1) for value in fields.values())


class LayerClock:
    """Self-time and count collectors behind the installed wrappers."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._recorded = 0.0
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(list)
        self.counts = defaultdict(int)
        self.working_set = 0

    def _depth(self) -> dict:
        depth = getattr(self._local, "depth", None)
        if depth is None:
            depth = self._local.depth = defaultdict(int)
        return depth

    def wrap(self, layer: str, fn, on_exit=None):
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not clock.enabled:
                return fn(*args, **kwargs)
            depth = clock._depth()
            outer = depth[layer] == 0
            token = on_exit.enter(args) if on_exit is not None and outer else None
            depth[layer] += 1
            before = clock._recorded
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[layer] -= 1
                with clock._lock:
                    own = elapsed - (clock._recorded - before)
                    clock._recorded += own
                    clock.self_s[layer] += own
            if outer:
                clock.calls[layer] += 1
                clock.inclusive[layer].append(elapsed)
                if on_exit is not None:
                    on_exit.exit(token, args, result)
            return result

        return wrapper


class _KernelCounters:
    """Paper-op and computed-byte deltas of the approach's OpCounter."""

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock

    def enter(self, args):
        counter = args[0].counter
        return counter.total_ops, counter.total_bytes

    def exit(self, token, args, result) -> None:
        counter = args[0].counter
        self.clock.counts["kernel.ops"] += counter.total_ops - token[0]
        self.clock.counts["kernel.bytes"] += counter.total_bytes - token[1]
        self.clock.counts["kernel.combos"] += int(len(args[2]))


class _Rows:
    """Counts the rows a call returned under ``key``."""

    def __init__(self, clock: LayerClock, key: str) -> None:
        self.clock, self.key = clock, key

    def enter(self, args):
        return None

    def exit(self, token, args, result) -> None:
        self.clock.counts[self.key] += int(len(result))


class _EncodeBytes(_Rows):
    """Counts the bytes of the encodings ``prepare`` returned."""

    def exit(self, token, args, result) -> None:
        self.clock.counts[self.key] += _array_bytes(result)


class _EngineChunks(_Rows):
    """Counts the chunks an engine run reports in its device stats."""

    def exit(self, token, args, result) -> None:
        for entry in (getattr(result, "device_stats", None) or {}).values():
            self.clock.counts[self.key] += int(entry.get("chunks", 0))


def install(clock: LayerClock) -> None:
    """Wrap every layer entry point (class attributes, so all callers see it)."""
    from repro.backends.numpy_backend import NumpyBackend
    from repro.core import scoring
    from repro.core.approaches import APPROACHES
    from repro.distributed import coordinator
    from repro.engine import candidates
    from repro.engine.executor import HeterogeneousExecutor
    from repro.pipeline import SearchPipeline

    def patch(owner, name, layer, on_exit=None):
        original = owner.__dict__[name]
        setattr(owner, name, clock.wrap(layer, original, on_exit))

    for cls in {cls for cls in APPROACHES.values()}:
        if "prepare" in cls.__dict__:
            patch(cls, "prepare", "encode", _EncodeBytes(clock, "encode.bytes"))
        for name in ("build_tables", "score_combinations"):
            if name in cls.__dict__:
                patch(cls, name, "kernel", _KernelCounters(clock))
    for cls in vars(candidates).values():
        if isinstance(cls, type) and "materialize" in cls.__dict__:
            patch(cls, "materialize", "enumerate", _Rows(clock, "enumerate.combos"))
    for cls in vars(scoring).values():
        if isinstance(cls, type) and "score" in cls.__dict__ and cls.__module__ == scoring.__name__:
            patch(cls, "score", "score", _Rows(clock, "score.tables"))
    patch(HeterogeneousExecutor, "run", "engine", _EngineChunks(clock, "engine.chunks"))
    patch(SearchPipeline, "run", "pipeline")
    coordinator.merge_rows = clock.wrap("merge", coordinator.merge_rows)

    original_counts = NumpyBackend.split_class_counts

    @functools.wraps(original_counts)
    def split_class_counts(self, class_planes, padding_mask, combos):
        if clock.enabled:
            # Two (combos x 3^(k-1) x words) AND-grids live at once: the
            # transient the approaches budget their passes against.
            grid = len(combos) * 3 ** (combos.shape[1] - 1) * class_planes.shape[2]
            clock.working_set = max(
                clock.working_set, 2 * grid * class_planes.dtype.itemsize
            )
        return original_counts(self, class_planes, padding_mask, combos)

    NumpyBackend.split_class_counts = split_class_counts


# -- distributed spans ---------------------------------------------------------


def _worker_spans(rows, name):
    coordinator_pid = next(r["pid"] for r in rows if r["name"] == "shard.dispatch")
    return [r for r in rows if r["name"] == name and r["pid"] != coordinator_pid]


def distributed_view(rows: list[dict], stats) -> dict:
    """Per-call distributed layer numbers from one traced call's spans."""
    dispatch = next(r for r in rows if r["name"] == "shard.dispatch")
    shard_runs = _worker_spans(rows, "shard.run")
    per_worker = defaultdict(float)
    for span in shard_runs:
        per_worker[span["pid"]] += span["duration"]
    busy = sum(per_worker.values())
    kernels = _worker_spans(rows, "kernel")
    kernel_busy = sum(r["duration"] for r in kernels)
    device_runs = _worker_spans(rows, "device.run")
    worker_starts = [r["start"] for r in rows if r["pid"] != dispatch["pid"]]
    extra = stats.extra["distributed"]
    plane = extra.get("data_plane") or {}
    workers = int(extra["workers"])
    return {
        "spawn": max(0.0, min(worker_starts) - dispatch["start"]) if worker_starts else 0.0,
        "publish": sum(r["duration"] for r in rows if r["name"] == "shm.publish"),
        "attach": sum(r["duration"] for r in _worker_spans(rows, "shm.attach")),
        "shard_run_busy": busy,
        "dispatch": dispatch["duration"],
        "dispatch_wait": max(0.0, dispatch["duration"] - max(per_worker.values(), default=0.0)),
        "shards": len(shard_runs),
        "parallel_eff": busy / (workers * dispatch["duration"]),
        "retries": int((extra.get("resilience") or {}).get("retries", 0)),
        "repacks": int(
            plane.get("encoding_cache_misses", 0)
            + plane.get("dataset_pickled", 0)
            + plane.get("worker_context_built", 0)
        ),
        "segments_reused": int(plane.get("segments_reused", 0)),
        "kernel_busy": kernel_busy,
        "kernel_chunks": [r["duration"] for r in kernels],
        "engine_self": sum(r["duration"] for r in device_runs) - kernel_busy,
        "engine_runs": len(device_runs),
        "ops": int(stats.total_ops),
        "bytes": int(stats.bytes_loaded + stats.bytes_stored),
        "combos": int(stats.n_combinations),
    }


# -- the traced run ------------------------------------------------------------

#: distributed_view keys that are seconds (normalised like every timing).
_DIST_TIMES = ("spawn", "publish", "attach", "shard_run_busy", "dispatch",
               "dispatch_wait", "kernel_busy", "engine_self")


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _modelled_seconds(repro, workload, dataset, result) -> float:
    from repro.perfmodel.cpu_model import estimate_cpu
    from repro.perfmodel.distributed import estimate_distributed_run

    if workload.kind == "staged":
        return sum(stage.estimated_seconds or 0.0 for stage in result.stages)
    combos = result.stats.n_combinations
    if workload.kind == "distributed":
        return estimate_distributed_run(
            combos,
            dataset.n_samples,
            dataset.n_snps,
            order=3,
            n_workers=workload.workers,
            n_shards=int(result.stats.extra["distributed"]["n_shards"]),
            pool="keep",
            shm=True,
        )["estimated_seconds"]
    estimate = estimate_cpu(
        repro.cpu("CI3"), 4, n_snps=dataset.n_snps, n_samples=dataset.n_samples, order=3
    )
    return combos * dataset.n_samples / estimate.elements_per_second_per_core


def traced_run(session, seconds: float) -> dict:
    """Per-layer metrics of one workload (``session`` has done its set-up)."""
    from repro.core.encoding_cache import ENCODING_CACHE
    from repro.telemetry import last_run

    repro, workload, dataset = session.repro, session.workload, session.dataset
    distributed = workload.kind == "distributed"
    clock = LayerClock()
    install(clock)
    traced = make_detector(repro, workload, telemetry="full") if distributed else session.detector
    probe = session.probe

    def traced_call():
        clock.reset()
        hits = ENCODING_CACHE.hits
        clock.enabled = True
        try:
            raw, result = session.timed_call(traced)
        finally:
            clock.enabled = False
        hits = ENCODING_CACHE.hits - hits
        spans = last_run().tracer.export_spans() if distributed and result is not None else []
        return raw, result, hits, spans

    # First call: cold, traced (spawn, publish and attach happen here).
    raw, result, _, spans = traced_call()
    first_probe = probe.measure()
    session.check(result)
    first_scale = normalise(1.0, (session.setup_probe + first_probe) / 2)
    first_dist = distributed_view(spans, result.stats) if distributed and result else {}

    samples = defaultdict(list)
    untraced, traced_times, probes = [], [], [first_probe]
    attempted = 1
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        raw_plain, plain = session.timed_call()
        probes.append(probe.measure())
        session.check(plain)
        untraced.append(normalise(raw_plain, (probes[-2] + probes[-1]) / 2))
        samples["raw_call"].append(raw_plain)

        raw, result, hits, spans = traced_call()
        probes.append(probe.measure())
        attempted += 2
        if not session.check(result):
            continue
        scale = normalise(1.0, (probes[-2] + probes[-1]) / 2)
        traced_times.append(raw * scale)
        for layer in LAYERS:
            samples[f"{layer}.self"].append(clock.self_s[layer] * scale)
        samples["kernel.chunk"].extend(t * scale for t in clock.inclusive["kernel"])
        samples["encode.calls"].append(clock.calls["encode"])
        samples["kernel.calls"].append(clock.calls["kernel"])
        samples["engine.runs"].append(clock.calls["engine"])
        for key, value in clock.counts.items():
            samples[key].append(value)
        samples["encode.hit_ratio"].append(hits / max(1, hits + clock.calls["encode"]))
        samples["working_set"].append(clock.working_set)
        samples["modelled"].append(_modelled_seconds(repro, workload, dataset, result))
        samples["raw_traced"].append(raw)
        if workload.kind == "staged":
            stage_s = {stage.stage: stage.elapsed_seconds * scale for stage in result.stages}
            for name in ("screen", "expand", "permutation"):
                samples[f"pipeline.{name}"].append(stage_s.get(name, 0.0))
            samples["pipeline.evaluated"].append(sum(s.evaluated for s in result.stages))
            samples["pipeline.fraction"].append(result.evaluated_fraction)
        if distributed:
            view = distributed_view(spans, result.stats)
            chunks = view.pop("kernel_chunks")
            samples["kernel.chunk"].extend(t * scale for t in chunks)
            samples["dist.kernel_calls"].append(len(chunks))
            for key, value in view.items():
                timed = key in _DIST_TIMES
                samples[f"dist.{key}"].append(value * scale if timed else value)

    inline = []
    if distributed:
        # Single-process baseline of the same dataset (workers=1 path); the
        # kernel's working set is only observable in-process, so read it here.
        clock.reset()
        clock.enabled = True
        for _ in range(3):
            raw_inline, result = session.timed_call(inline=True)
            probes.append(probe.measure())
            attempted += 1
            session.check(result)
            inline.append(normalise(raw_inline, (probes[-2] + probes[-1]) / 2))
        clock.enabled = False
        samples["working_set"].append(clock.working_set)

    m = {}
    call_p50 = _median(traced_times)
    untraced_p50 = _median(untraced)
    m["setup.import_s"] = normalise(session.setup_parts["import"], session.setup_probe)
    m["setup.load_s"] = normalise(session.setup_parts["load"], session.setup_probe)
    m["setup.construct_s"] = normalise(session.setup_parts["construct"], session.setup_probe)

    m["encode.calls"] = _median(samples["encode.calls"])
    m["encode.busy_s"] = _median(samples["encode.self"])
    m["encode.bytes"] = _median(samples["encode.bytes"])
    m["encode.cache_hit_ratio"] = _median(samples["encode.hit_ratio"])

    m["enumerate.busy_s"] = _median(samples["enumerate.self"])
    m["enumerate.combos"] = _median(samples["enumerate.combos"])

    if distributed:
        ops, nbytes = _median(samples["dist.ops"]), _median(samples["dist.bytes"])
        m["kernel.calls"] = _median(samples["dist.kernel_calls"])
        m["kernel.busy_s"] = _median(samples["dist.kernel_busy"])
        m["kernel.combos"] = _median(samples["dist.combos"])
    else:
        ops, nbytes = _median(samples["kernel.ops"]), _median(samples["kernel.bytes"])
        m["kernel.calls"] = _median(samples["kernel.calls"])
        m["kernel.busy_s"] = _median(samples["kernel.self"])
        m["kernel.combos"] = _median(samples["kernel.combos"])
    m["kernel.elements_per_busy_s"] = (
        m["kernel.combos"] * dataset.n_samples / m["kernel.busy_s"] if m["kernel.busy_s"] else 0.0
    )
    m["kernel.chunk_p50_s"] = _median(samples["kernel.chunk"])
    m["kernel.ops"] = ops
    m["kernel.bytes"] = nbytes
    m["kernel.ops_per_byte"] = ops / nbytes if nbytes else 0.0
    m["kernel.working_set_bytes"] = max(samples["working_set"], default=0)

    m["score.busy_s"] = _median(samples["score.self"])
    m["score.tables"] = _median(samples["score.tables"])

    if distributed:
        m["engine.runs"] = _median(samples["dist.engine_runs"])
        m["engine.self_s"] = _median(samples["dist.engine_self"])
        m["engine.chunks"] = m["kernel.calls"]
    else:
        m["engine.runs"] = _median(samples["engine.runs"])
        m["engine.self_s"] = _median(samples["engine.self"])
        m["engine.chunks"] = _median(samples["engine.chunks"])
    m["engine.self_frac"] = m["engine.self_s"] / call_p50 if call_p50 else 0.0

    for name in ("screen", "expand", "permutation"):
        m[f"pipeline.{name}_s"] = _median(samples[f"pipeline.{name}"])
    m["pipeline.self_s"] = _median(samples["pipeline.self"])
    m["pipeline.evaluated"] = _median(samples["pipeline.evaluated"])
    m["pipeline.evaluated_fraction"] = _median(samples["pipeline.fraction"])

    m["distributed.spawn_s"] = first_dist.get("spawn", 0.0) * first_scale
    m["distributed.publish_s"] = first_dist.get("publish", 0.0) * first_scale
    m["distributed.attach_s"] = first_dist.get("attach", 0.0) * first_scale
    m["distributed.dispatch_s"] = _median(samples["dist.dispatch"])
    m["distributed.shard_run_busy_s"] = _median(samples["dist.shard_run_busy"])
    m["distributed.dispatch_wait_s"] = _median(samples["dist.dispatch_wait"])
    m["distributed.merge_s"] = _median(samples["merge.self"]) if distributed else 0.0
    m["distributed.shards"] = _median(samples["dist.shards"])
    m["distributed.parallel_eff"] = _median(samples["dist.parallel_eff"])
    m["distributed.speedup_vs_inline"] = (
        _median(inline) / untraced_p50 if inline and untraced_p50 else 0.0
    )
    m["distributed.retries"] = sum(samples["dist.retries"]) + first_dist.get("retries", 0)
    m["distributed.warm_repacks"] = sum(samples["dist.repacks"])
    m["distributed.segments_reused"] = _median(samples["dist.segments_reused"])

    modelled = _median(samples["modelled"])
    m["perfmodel.residual"] = _median(samples["raw_traced"]) / modelled if modelled else 0.0
    m["trace.overhead"] = call_p50 / untraced_p50 if untraced_p50 else 0.0
    m["trace.call_p50_s"] = call_p50
    m["host.probe_s"] = _median(probes)
    m["raw.call_p50_s"] = _median(samples["raw_call"])
    return {"layers": m, "attempted": attempted, "probes": probes}
