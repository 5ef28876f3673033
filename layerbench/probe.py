"""Fixed host-speed probe used to normalise every timing.

The probe is benchmark code, never program code: a pure-Python loop plus
NumPy bit operations (XOR, popcount, sum) over arrays larger than the
per-core L2 cache, the same mix of interpreter and memory-bound bit work
the detection kernels do.  Output buffers are preallocated so the probe's
time does not depend on how the allocator of the calling process happens
to serve an 8 MiB request (mmap with fresh page faults or a reused heap
block), which otherwise made the probe track the *program's* history
instead of the host's speed.

A timing in reference seconds is ``raw_seconds * P0 / probe_seconds``:
what the timed work would have taken on a host where the probe takes
``P0``.  ``P0`` is a constant kept with the benchmark (see README.md); it
fixes the unit and never changes between runs or commits.
"""

from __future__ import annotations

import time

import numpy as np

#: Reference probe time in seconds.  Chosen once as the typical fresh-process
#: probe on a 2-vCPU Intel Xeon host (4 MiB L2 per core); never re-tuned.
P0 = 0.014

#: 2^20 uint64 words = 8 MiB per operand, twice the 4 MiB L2 of that host.
PROBE_WORDS = 1 << 20
PYTHON_ITERATIONS = 30_000
NUMPY_PASSES = 4
REPEATS = 3


class Probe:
    """The probe's operands and output buffers, allocated once per process."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20220530)
        self.a = rng.integers(0, 2**63, PROBE_WORDS, dtype=np.uint64)
        self.b = rng.integers(0, 2**63, PROBE_WORDS, dtype=np.uint64)
        self.c = np.empty_like(self.a)
        self.counts = np.empty(PROBE_WORDS, dtype=np.uint8)

    def _once(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(PYTHON_ITERATIONS):
            acc += i & 7
        for _ in range(NUMPY_PASSES):
            np.bitwise_xor(self.a, self.b, out=self.c)
            np.bitwise_count(self.c, out=self.counts)
            acc += int(self.counts.sum(dtype=np.uint64))
        elapsed = time.perf_counter() - start
        if acc <= 0:
            raise RuntimeError("probe produced no work")
        return elapsed

    def measure(self) -> float:
        """Probe seconds: the mean of a few back-to-back repetitions.

        An untimed first repetition pulls the operands back into cache after
        the timed work evicted them, so the probe does not depend on how
        much cache the program just used.  The mean, not the minimum, of
        the timed repetitions follows the host's speed best: over repeated
        runs it cut the run-to-run spread of normalised call times most.
        """
        self._once()
        return sum(self._once() for _ in range(REPEATS)) / REPEATS


def normalise(raw_seconds: float, probe_seconds: float) -> float:
    """Raw seconds expressed in reference seconds."""
    return raw_seconds * P0 / probe_seconds
