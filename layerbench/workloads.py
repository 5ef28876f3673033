"""Workload definitions, seeded input generation and output digests.

Every workload runs the ``cpu-v4`` approach with the K2 objective on a
seeded synthetic case/control dataset with one planted third-order
interaction.  The benchmark generates the dataset itself (NumPy only) and
hands the program nothing but the saved ``.npz``; README.md records why
each workload was chosen and which layer it stresses.

This module imports no part of the program at module level, so the parent
process and the fresh-process probe stay free of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

APPROACH = "cpu-v4"
ORACLE_APPROACH = "cpu-v2"
ORDER = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a dataset shape plus the call it times."""

    name: str
    kind: str  #: "detect", "staged" or "distributed"
    n_snps: int
    n_samples: int
    workers: int = 1
    top_k: int = 10
    screen_order: int = 2
    keep_snps: int = 16
    n_permutations: int = 100
    #: Fresh processes per run.  Each times its set-up and first call, then
    #: runs an equal share of the warm loop.  A process's call times carry
    #: an offset of its own (memory placement; up to 17 % between processes
    #: on the same host minutes apart) that the probe does not cancel, so
    #: the warm calls of several processes are pooled.
    processes: int = 8


WORKLOADS = {
    w.name: w
    for w in (
        # Kernel-bound: one in-process dense sweep, encode is a cache hit.
        # 16384 samples put the per-chunk AND-grid far past the 4 MiB L2.
        Workload("dense-k3", "detect", n_snps=24, n_samples=16384),
        # Encode/engine/pipeline-bound: 100 permutations re-pack with the
        # encoding cache bypassed, on tiny kernel batches.  One finalist:
        # the permutation stage re-packs the union of the finalists' SNPs,
        # which for a top-10 ranged from 9 to 15 SNPs between seeds (and the
        # call time with it); one triple is always 3 SNPs.
        Workload("staged-perm", "staged", n_snps=64, n_samples=4096, top_k=1),
        # Distributed-bound: warm 2-worker fleet over shared memory,
        # 32 shards; 1024 samples keep the kernel working set inside L2.
        # Five processes, not eight: each pays a cold fleet spawn (~2 s).
        Workload("dist2", "distributed", n_snps=64, n_samples=1024, workers=2, processes=5),
    )
}


def generate_dataset(workload: Workload, seed: int) -> dict:
    """Genotypes, phenotypes and the planted triple for ``seed``.

    Genotypes follow Hardy-Weinberg proportions at a per-SNP minor-allele
    frequency drawn from [0.1, 0.4]; exactly half the samples are cases,
    drawn with weights from a threshold penetrance over three seed-chosen
    SNPs (risk 0.7 when all three carry a minor allele, 0.3 otherwise).
    The fixed class sizes keep the packed word count of each phenotype
    class, and so the kernel's work and memory layout, the same for every
    seed: with free class sizes the call time moved by up to 25 % from one
    seed to the next.
    """
    rng = np.random.default_rng([seed, workload.n_snps, workload.n_samples])
    maf = rng.uniform(0.1, 0.4, size=(workload.n_snps, 1))
    alleles = rng.random((workload.n_snps, workload.n_samples, 2)) < maf[:, :, None]
    genotypes = alleles.sum(axis=2).astype(np.int8)
    planted = np.sort(rng.choice(workload.n_snps, size=ORDER, replace=False))
    carriers = (genotypes[planted] >= 1).all(axis=0)
    risk = np.where(carriers, 0.7, 0.3)
    cases = rng.choice(
        workload.n_samples, size=workload.n_samples // 2, replace=False, p=risk / risk.sum()
    )
    phenotypes = np.zeros(workload.n_samples, dtype=np.int8)
    phenotypes[cases] = 1
    return {"genotypes": genotypes, "phenotypes": phenotypes, "planted": planted}


def write_dataset(workload: Workload, seed: int, path: Path) -> list[int]:
    """Save the seeded dataset in the program's ``.npz`` layout."""
    data = generate_dataset(workload, seed)
    np.savez_compressed(
        path, genotypes=data["genotypes"], phenotypes=data["phenotypes"]
    )
    return [int(s) for s in data["planted"]]


# -- calls into the program (imported lazily by the child processes) --------


def make_detector(repro, workload: Workload, approach: str = APPROACH, telemetry: str = "off"):
    return repro.EpistasisDetector(
        approach=approach, order=ORDER, top_k=workload.top_k, telemetry=telemetry
    )


def call(workload: Workload, detector, dataset, *, inline: bool = False):
    """One timed call of the workload; ``inline`` forces one process."""
    if workload.kind == "staged":
        return detector.detect_staged(
            dataset,
            screen_order=workload.screen_order,
            keep_snps=workload.keep_snps,
            n_permutations=workload.n_permutations,
        )
    if workload.kind == "distributed" and not inline:
        return detector.detect(dataset, workers=workload.workers)
    return detector.detect(dataset)


def digest(workload: Workload, result) -> dict:
    """Bit-exact, JSON-safe view of a call's output (scores as float hex)."""
    out = {
        "top": [
            [list(map(int, it.snps)), float(it.score).hex()] for it in result.top
        ]
    }
    if workload.kind == "staged":
        out["p_values"] = [float(p).hex() for p in result.p_values]
    return out


def elements(workload: Workload, dataset, result) -> int:
    """Combinations (or tables evaluated) x samples done by one call."""
    if workload.kind == "staged":
        tables = sum(stage.evaluated for stage in result.stages)
    else:
        tables = result.stats.n_combinations
    return int(tables) * int(dataset.n_samples)
