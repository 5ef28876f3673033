"""Fresh-process entry points of the benchmark.

``python3 layerbench/child.py MODE CONFIG.json`` runs one role and prints
one JSON object as its last line of standard output:

* ``probe``     — the host-speed probe in a process that never loads the
  program (the baseline of the probe-inflation guard);
* ``reference`` — the expected outputs, computed once with the ``cpu-v2``
  oracle (and, for ``dist2``, the in-process ``cpu-v4`` result);
* ``loop``      — timed set-up (``import repro``, ``load_npz``, detector
  construction), the timed first call, then the warm closed loop: one
  caller, each call starts when the previous one returns, a probe between
  calls;
* ``trace``     — the same set-up followed by the traced loop (layers.py).

Module level imports only the standard library: distributed workers are
spawned processes that re-import this file as ``__mp_main__``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def _tree_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of ``pid``'s live descendants, in MiB."""
    children: dict[int, list[int]] = {}
    peaks: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            text = Path(f"/proc/{entry}/status").read_text()
        except OSError:
            continue
        fields = dict(
            line.split(":", 1) for line in text.splitlines() if ":" in line
        )
        ppid = int(fields.get("PPid", "0").strip() or 0)
        children.setdefault(ppid, []).append(int(entry))
        peaks[int(entry)] = int(fields.get("VmHWM", "0 kB").split()[0])
    total_kb = 0
    stack = list(children.get(pid, []))
    while stack:
        child = stack.pop()
        total_kb += peaks.get(child, 0)
        stack.extend(children.get(child, []))
    return total_kb / 1024.0


def _self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _segment_names() -> set[str]:
    from repro.distributed.shm import scan_segments

    return {segment.name for segment in scan_segments()}


def _leftover_segments(session: "Session") -> int:
    """Shut every warm fleet down, then count the segments this process left."""
    session.repro.distributed.shutdown_fleets()
    return len(_segment_names() - session.segments_before)


class Session:
    """A fresh process's timed set-up, probe and first call."""

    def __init__(self, cfg: dict) -> None:
        start = time.perf_counter()
        import repro

        imported = time.perf_counter()
        dataset = repro.load_npz(cfg["npz"])
        loaded = time.perf_counter()
        from workloads import WORKLOADS, make_detector  # benchmark code, untimed

        self.workload = WORKLOADS[cfg["workload"]]
        constructing = time.perf_counter()
        detector = make_detector(repro, self.workload)
        constructed = time.perf_counter()
        self.repro, self.dataset, self.detector = repro, dataset, detector
        self.setup_parts = {
            "import": imported - start,
            "load": loaded - imported,
            "construct": constructed - constructing,
        }
        self.setup_raw = sum(self.setup_parts.values())
        # The probe module (and its NumPy operands) is loaded only after the
        # timed set-up, so the set-up pays every import itself.
        from probe import Probe

        self.probe = Probe()
        self.setup_probe = self.probe.measure()
        # Segments other processes left behind are not this run's to count.
        self.segments_before = _segment_names()
        with open(cfg["reference"]) as fh:
            self.expected = json.load(fh)["expected"]
        self.failures: list[str] = []

    def timed_call(self, detector=None, *, inline: bool = False):
        """One call: raw seconds and the result (None when it raised)."""
        from workloads import call

        start = time.perf_counter()
        try:
            result = call(
                self.workload, detector or self.detector, self.dataset, inline=inline
            )
        except Exception as exc:  # a failed call is counted, not fatal
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - start, None
        return time.perf_counter() - start, result

    def check(self, result) -> bool:
        from workloads import digest

        if result is None:
            return False
        ok = digest(self.workload, result) == self.expected
        if not ok:
            self.failures.append("output differs from the reference")
        return ok

    def first_call(self) -> dict:
        raw, result = self.timed_call()
        after = self.probe.measure()
        ok = self.check(result)
        return {
            "setup_raw": self.setup_raw,
            "setup_parts": self.setup_parts,
            "setup_probe": self.setup_probe,
            "first_raw": raw,
            "first_probe_after": after,
            "first_ok": ok,
        }


def mode_probe(cfg: dict) -> dict:
    from probe import Probe

    probe = Probe()
    return {"probes": [probe.measure() for _ in range(5)]}


def mode_reference(cfg: dict) -> dict:
    """Expected outputs, computed outside every timed region."""
    import repro

    from workloads import APPROACH, ORACLE_APPROACH, WORKLOADS, call, digest, make_detector

    workload = WORKLOADS[cfg["workload"]]
    dataset = repro.load_npz(cfg["npz"])
    def expected(approach: str) -> dict:
        detector = make_detector(repro, workload, approach)
        return digest(workload, call(workload, detector, dataset, inline=True))

    oracle = expected(ORACLE_APPROACH)
    doc = {"expected": oracle, "agree": True}
    if workload.kind == "distributed":
        doc["agree"] = expected(APPROACH) == oracle
    with open(cfg["reference"], "w") as fh:
        json.dump(doc, fh)
    return {"agree": doc["agree"]}


def mode_loop(cfg: dict) -> dict:
    from workloads import elements

    session = Session(cfg)
    first = session.first_call()
    probes = [first["first_probe_after"]]
    raws: list[float] = []
    oks: list[bool] = []
    done = 0
    deadline = time.perf_counter() + float(cfg["seconds"])
    while time.perf_counter() < deadline:
        raw, result = session.timed_call()
        probes.append(session.probe.measure())
        raws.append(raw)
        oks.append(session.check(result))
        if result is not None:
            done += elements(session.workload, session.dataset, result)
    peak = _self_peak_rss_mb() + _tree_peak_rss_mb(os.getpid())
    first.update(
        warm_raw=raws,
        warm_probes=probes,
        warm_ok=oks,
        warm_elements=done,
        peak_rss_mb=peak,
        leftover_segments=_leftover_segments(session),
        failures=session.failures,
    )
    return first


def mode_trace(cfg: dict) -> dict:
    from layers import traced_run

    session = Session(cfg)
    doc = traced_run(session, float(cfg["seconds"]))
    doc["leftover_segments"] = _leftover_segments(session)
    doc["failures"] = session.failures
    return doc


MODES = {
    "probe": mode_probe,
    "reference": mode_reference,
    "loop": mode_loop,
    "trace": mode_trace,
}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in MODES:
        sys.stderr.write(f"usage: child.py {{{','.join(MODES)}}} CONFIG.json\n")
        return 2
    with open(argv[1]) as fh:
        cfg = json.load(fh)
    _emit(MODES[argv[0]](cfg))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
