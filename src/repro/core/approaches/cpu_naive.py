"""CPU approach V1 — the naïve binarised kernel (Figure 1).

Every SNP keeps its three genotype bit-planes over *all* samples and the
frequency table is split into cases and controls by masking with the packed
phenotype vector and its negation.  This is the baseline the paper
characterises as completely memory bound (its working set per combination is
``3 x 3`` planes plus the phenotype, and 162 instructions per word are spent
per combination).
"""

from __future__ import annotations

import numpy as np

from repro.bitops.packing import paper_word_ratio
from repro.core.approaches.base import Approach
from repro.core.approaches._tiled import fused_naive_scores, tiled_naive_tables
from repro.core.approaches._kernels import NAIVE_OPS_PER_COMBO_WORD, charge_naive_ops
from repro.datasets.binarization import BinarizedDataset
from repro.datasets.dataset import GenotypeDataset

__all__ = ["CpuNaiveApproach"]


class CpuNaiveApproach(Approach):
    """Naïve three-plane + phenotype-mask kernel (CPU V1)."""

    name = "cpu-v1"
    device = "cpu"
    version = 1
    description = "naive binarised kernel: 3 planes/SNP + phenotype mask"

    #: Per-combination, per-word instruction mix (consumed by the models).
    OPS_PER_COMBO_WORD = NAIVE_OPS_PER_COMBO_WORD

    def prepare(self, dataset: GenotypeDataset) -> BinarizedDataset:
        """Encode the dataset in the naïve three-plane representation."""
        return BinarizedDataset.from_dataset(dataset, layout=self.word_layout)

    def build_tables(self, encoded: BinarizedDataset, combos: np.ndarray) -> np.ndarray:
        """Build 27x2 tables by AND-ing planes with the phenotype masks."""
        combos = self._check_combos(combos)
        if combos.size and combos.max() >= encoded.n_snps:
            raise IndexError("combination index exceeds the number of SNPs")
        tables = tiled_naive_tables(self.backend, encoded, combos)
        # Charging is modelled per paper word and backend-independent: the
        # same §IV mix whichever backend produced the (bit-identical) tables.
        charge_naive_ops(
            self.counter,
            combos.shape[0],
            encoded.planes.shape[2],
            combos.shape[1],
            word_ratio=paper_word_ratio(encoded.planes),
        )
        return tables

    def score_combinations(
        self, encoded: BinarizedDataset, combos: np.ndarray, objective
    ) -> np.ndarray:
        """Fused build+score over SNP tiles (bit-identical to build+score).

        Charges exactly what :meth:`build_tables` charges — the modelled
        §IV mix is per paper word over the *full* encoding, unchanged by
        fusion or tiling.
        """
        combos = self._check_combos(combos)
        if combos.size and combos.max() >= encoded.n_snps:
            raise IndexError("combination index exceeds the number of SNPs")
        scores = fused_naive_scores(self.backend, encoded, combos, objective)
        charge_naive_ops(
            self.counter,
            combos.shape[0],
            encoded.planes.shape[2],
            combos.shape[1],
            word_ratio=paper_word_ratio(encoded.planes),
        )
        return scores

    def extra_stats(self) -> dict:
        return {"encoding": "3-plane + phenotype", "ops_per_combo_word": 162}
