"""Cold-start guard: the detection path never imports ``scipy.stats``.

``scipy.stats`` costs more to import than everything ``detect()`` runs
(about 0.9 s of a 1.6 s ``import repro`` before it was made lazy), and
every spawned fleet worker pays the import of ``repro`` again.  Only the
QC helper :func:`repro.datasets.qc.hardy_weinberg_pvalues` needs it, so it
imports it function-locally.  These tests keep it that way: they check
``sys.modules`` of one fresh interpreter, so they are structural and
involve no timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

#: Module that must stay out of a process that only detects.
HEAVY = "scipy.stats"

_PROBE = f"""
import json, sys
heavy = {HEAVY!r}
seen = {{}}

# The spawn worker's entry module, imported bare (as a spawned worker does).
import repro.distributed.runner
seen["runner"] = heavy in sys.modules

from repro import EpistasisDetector
from repro.datasets import generate_null_dataset

dataset = generate_null_dataset(8, 64, seed=1)
detector = EpistasisDetector(order=3, approach="cpu-v4", top_k=2)
detector.detect(dataset)
detector.detect_staged(dataset, keep_snps=6, n_permutations=2)
seen["detect"] = heavy in sys.modules

from repro.datasets.qc import hardy_weinberg_pvalues
pvalues = hardy_weinberg_pvalues(dataset.genotypes)
seen["qc"] = heavy in sys.modules
seen["pvalues"] = pvalues.tolist()
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def probe() -> dict:
    """Run the probe in a fresh interpreter and return what it saw."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spawn_worker_entry_module_does_not_load_scipy_stats(probe):
    assert probe["runner"] is False


def test_detect_and_detect_staged_do_not_load_scipy_stats(probe):
    assert probe["detect"] is False


def test_hardy_weinberg_loads_scipy_stats_on_demand(probe):
    from repro.datasets import generate_null_dataset
    from repro.datasets.qc import hardy_weinberg_pvalues

    assert probe["qc"] is True
    # Same values as in this (already scipy.stats-laden) process: the
    # lazy import binds the same ``chi2.sf``.
    expected = hardy_weinberg_pvalues(generate_null_dataset(8, 64, seed=1).genotypes)
    assert expected.min() < 1.0
    assert np.array_equal(np.asarray(probe["pvalues"]), expected)
