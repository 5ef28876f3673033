"""Tiled execution of the CPU kernels under the working-set budget.

Both execution paths of the CPU approaches run a combination batch in the
tiles and word passes of :func:`repro.engine.tiling.tile_plan`, so the
AND-grids of every kernel call fit the host's L2:

* :func:`tiled_naive_tables` / :func:`tiled_split_tables` (build, then
  score) tile the batch over combinations and return its
  ``(n_combos, 3^k, 2)`` tables;
* :func:`fused_naive_scores` / :func:`fused_split_scores` score each tile
  as soon as it is counted, so no batch-wide table array exists.  The
  NumPy reference scores the tile's tables directly; compiled backends
  get the SNP tiles of :func:`repro.engine.tiling.iter_snp_tiles`, each
  tile's distinct SNP planes gathered once into a compact block, and fold
  the tables into scores inside their ``score_combinations`` kernels.

Word passes only bound the NumPy broadcast grids: compiled backends stream
the words inside their kernels with O(1) transients, so they always get
whole-word tiles.  Passes sum exact integer counts, so every split is
bit-identical to any other.

The helpers perform **no §IV charging**: the calling approach charges the
identical modelled per-paper-word mix on both paths, because tiling and
fusion change the machine's real traffic, not the paper's modelled
instruction/traffic counts (see :mod:`repro.perfmodel.counters`).
"""

from __future__ import annotations

import numpy as np

from repro.engine.tiling import iter_snp_tiles, tile_plan

__all__ = [
    "fused_naive_scores",
    "fused_split_scores",
    "tiled_naive_tables",
    "tiled_split_tables",
]


def _plan(backend, combos: np.ndarray, n_words: int, itemsize: int) -> tuple[int, int]:
    """``(tile_combos, words_per_pass)``; whole words off the reference."""
    tile, words = tile_plan(combos.shape[0], combos.shape[1], n_words, itemsize)
    return tile, words if backend.is_reference else n_words


def _word_slices(n_words: int, words_per_pass: int) -> list[slice]:
    if words_per_pass >= n_words:
        return [slice(None)]
    return [slice(s, s + words_per_pass) for s in range(0, n_words, words_per_pass)]


def _naive_tile(backend, planes, phenotype_words, combos, words_per_pass) -> np.ndarray:
    """One tile's naïve tables, summed over its word passes."""
    first, *rest = _word_slices(planes.shape[2], words_per_pass)
    tables = backend.naive_tables(planes[:, :, first], phenotype_words[first], combos)
    for words in rest:
        tables += backend.naive_tables(planes[:, :, words], phenotype_words[words], combos)
    return tables


def _class_counts(backend, planes, mask, combos, words_per_pass) -> np.ndarray:
    """One tile's counts of one phenotype class, summed over word passes."""
    first, *rest = _word_slices(planes.shape[2], words_per_pass)
    counts = backend.split_class_counts(planes[:, :, first], mask[first], combos)
    for words in rest:
        counts += backend.split_class_counts(planes[:, :, words], mask[words], combos)
    return counts


def _split_tile(backend, split, combos, words_per_pass) -> np.ndarray:
    """One tile's split tables: column 0 controls, column 1 cases."""
    return np.stack(
        [
            _class_counts(
                backend, split.control_planes, split.padding_mask(0), combos, words_per_pass
            ),
            _class_counts(
                backend, split.case_planes, split.padding_mask(1), combos, words_per_pass
            ),
        ],
        axis=-1,
    )


def _split_words(split) -> int:
    return max(split.control_planes.shape[2], split.case_planes.shape[2])


def _reference_scores(tile_tables, n_combos: int, tile: int, objective) -> np.ndarray:
    """Score each reference-backend tile as soon as its tables are built."""
    scores = np.empty(n_combos, dtype=np.float64)
    for start in range(0, n_combos, tile):
        rows = slice(start, start + tile)
        scores[rows] = objective.score(tile_tables(rows))
    return scores


def tiled_naive_tables(backend, encoded, combos: np.ndarray) -> np.ndarray:
    """``(n_combos, 3^k, 2)`` naïve tables, built tile by tile."""
    planes = encoded.planes
    tile, words = _plan(backend, combos, planes.shape[2], planes.dtype.itemsize)
    tables = np.empty((combos.shape[0], 3 ** combos.shape[1], 2), dtype=np.int64)
    for start in range(0, combos.shape[0], tile):
        rows = slice(start, start + tile)
        tables[rows] = _naive_tile(
            backend, planes, encoded.phenotype_words, combos[rows], words
        )
    return tables


def tiled_split_tables(backend, split, combos: np.ndarray) -> np.ndarray:
    """``(n_combos, 3^k, 2)`` phenotype-split tables, built tile by tile."""
    itemsize = split.control_planes.dtype.itemsize
    tile, words = _plan(backend, combos, _split_words(split), itemsize)
    tables = np.empty((combos.shape[0], 3 ** combos.shape[1], 2), dtype=np.int64)
    for start in range(0, combos.shape[0], tile):
        rows = slice(start, start + tile)
        tables[rows] = _split_tile(backend, split, combos[rows], words)
    return tables


def fused_naive_scores(backend, encoded, combos: np.ndarray, objective) -> np.ndarray:
    """Fused scores over the naïve three-plane encoding, tile by tile.

    The reference backend's kernels gather their own plane rows, so its
    tiles are scored straight from the encoding; compiled backends get each
    tile's distinct SNP planes gathered once and fold the tables into the
    scores inside their kernels.
    """
    planes = encoded.planes
    tile, words = _plan(backend, combos, planes.shape[2], planes.dtype.itemsize)
    phenotype_words = np.ascontiguousarray(encoded.phenotype_words)
    if backend.is_reference:
        return _reference_scores(
            lambda rows: _naive_tile(backend, planes, phenotype_words, combos[rows], words),
            combos.shape[0],
            tile,
            objective,
        )
    scores = np.empty(combos.shape[0], dtype=np.float64)
    for tile_slice, unique_snps, local in iter_snp_tiles(combos, tile):
        scores[tile_slice] = backend.score_combinations(
            "naive",
            local,
            objective,
            planes=np.ascontiguousarray(planes[unique_snps]),
            phenotype_words=phenotype_words,
        )
    return scores


def fused_split_scores(backend, split, combos: np.ndarray, objective) -> np.ndarray:
    """Fused scores over the phenotype-split encoding, tile by tile.

    Tiles as in :func:`fused_naive_scores`.
    """
    itemsize = split.control_planes.dtype.itemsize
    tile, words = _plan(backend, combos, _split_words(split), itemsize)
    if backend.is_reference:
        return _reference_scores(
            lambda rows: _split_tile(backend, split, combos[rows], words),
            combos.shape[0],
            tile,
            objective,
        )
    scores = np.empty(combos.shape[0], dtype=np.float64)
    for tile_slice, unique_snps, local in iter_snp_tiles(combos, tile):
        scores[tile_slice] = backend.score_combinations(
            "split",
            local,
            objective,
            control_planes=np.ascontiguousarray(split.control_planes[unique_snps]),
            case_planes=np.ascontiguousarray(split.case_planes[unique_snps]),
            control_mask=np.ascontiguousarray(split.padding_mask(0)),
            case_mask=np.ascontiguousarray(split.padding_mask(1)),
        )
    return scores
