"""Batch sizing and SNP-block tiling of the NumPy kernel batches.

Every NumPy kernel call materialises two ``tile x 3^(k-1) x words``
AND-grids (the broadcast sub-grid and the per-head-genotype grid), so the
speed of a batch is set by whether those grids stay in the core's L2.
This module owns the one rule that sizes them, in the spirit of the
paper's Algorithm 1, which sizes its ``<BS, BP>`` blocks to a cache level
that CARM names:

* the **working-set budget** is the host's per-core L2, read once per
  process from sysfs (falling back to the L2 of the default CARM CPU,
  ``devices.catalog`` ``CI3``, when sysfs has no answer);
* :func:`tile_plan` sizes a batch's **tiles** (combinations per kernel
  call, at most :data:`MAX_TILE_COMBOS`) so both grids fit the budget, and
  when even a :data:`MIN_TILE_COMBOS` tile does not fit, splits the words
  into **passes** — the paper's ``BP`` sample blocking, sized to L2.

A scheduler chunk enumerates combinations in rank order, so consecutive
combinations share most of their SNPs.  :func:`iter_snp_tiles` cuts a
chunk into tiles of consecutive combinations and names each tile's
distinct SNPs, so compiled backends gather their packed bit-planes once
per tile — the CPU analogue of the paper's tiled GPU kernel.  Tiling and
word passes are pure integer indexing plus exact integer sums: counts and
scores are bit-identical to an untiled evaluation.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Tuple

import numpy as np

__all__ = [
    "MAX_TILE_COMBOS",
    "MIN_TILE_COMBOS",
    "detect_l2_bytes",
    "iter_snp_tiles",
    "parse_cache_size",
    "tile_plan",
    "working_set_budget",
]

#: Ceiling on combinations per tile: small-word batches, whose grids fit
#: the budget many times over, gain nothing from larger tiles.
MAX_TILE_COMBOS = 512

#: Smallest tile before the words split into passes instead: every
#: kernel call pays a fixed dispatch cost, so a batch whose
#: 32-combination grids overflow the budget keeps that tile and walks its
#: words in budget-sized passes rather than shrinking towards one
#: combination per call.
MIN_TILE_COMBOS = 32

#: Where Linux describes the cache hierarchy of the first CPU.
SYSFS_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")

#: The working-set budget in bytes, read by :func:`working_set_budget`
#: on first use and kept for the life of the process.
_budget_bytes: int | None = None

_SIZE_UNITS = {"": 1, "K": 1024, "M": 1024**2}


def parse_cache_size(text: str) -> int:
    """Bytes of a sysfs cache ``size`` string such as ``48K`` or ``1M``."""
    text = text.strip().upper()
    unit = text[-1:] if text[-1:] in _SIZE_UNITS else ""
    return int(text[: len(text) - len(unit)]) * _SIZE_UNITS[unit]


def detect_l2_bytes(cache_dir: Path = SYSFS_CACHE_DIR) -> int:
    """Per-core L2 size of this host, or the ``CI3`` catalog L2 if unknown.

    Scans the sysfs ``index*`` entries of ``cache_dir`` for the level-2
    ``Unified`` or ``Data`` cache; entries that are missing or unreadable
    are skipped.
    """
    for index in sorted(Path(cache_dir).glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level == "2" and kind in ("Unified", "Data"):
                return parse_cache_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
    from repro.devices.catalog import cpu

    return int(cpu("CI3").cache("L2").size_kib * 1024)


def working_set_budget() -> int:
    """Bytes the live AND-grids of one kernel call may take (the L2)."""
    global _budget_bytes
    if _budget_bytes is None:
        _budget_bytes = detect_l2_bytes()
    return _budget_bytes


def tile_plan(n_combos: int, order: int, n_words: int, itemsize: int) -> Tuple[int, int]:
    """``(tile_combos, words_per_pass)`` for a batch of ``n_combos``.

    Sized so the two live ``tile x 3^(k-1) x words_per_pass`` grids fit
    :func:`working_set_budget`: whole-word tiles of up to
    :data:`MAX_TILE_COMBOS` combinations when a tile of at least
    :data:`MIN_TILE_COMBOS` fits, otherwise floor-sized tiles over word
    passes (never fewer than one word per pass).
    """
    per_combo_word = 2 * 3 ** (order - 1) * itemsize
    budget = working_set_budget()
    n_words = max(1, n_words)
    floor = min(MIN_TILE_COMBOS, max(1, n_combos))
    tile = min(MAX_TILE_COMBOS, budget // (per_combo_word * n_words))
    if tile >= floor:
        return tile, n_words
    return floor, max(1, min(n_words, budget // (per_combo_word * floor)))


def iter_snp_tiles(
    combos: np.ndarray,
    tile_combos: int = MAX_TILE_COMBOS,
) -> Iterator[Tuple[slice, np.ndarray, np.ndarray]]:
    """Yield ``(tile_slice, unique_snps, local_combos)`` over a chunk.

    ``unique_snps`` is the sorted distinct SNP index vector of the tile
    (use it to gather plane rows once); ``local_combos`` is the tile's
    combination block re-expressed in gathered-row indices.  The mapping
    is monotone, so rows stay strictly increasing and every kernel's
    combination contract keeps holding.
    """
    combos = np.asarray(combos)
    n_combos = combos.shape[0]
    tile_combos = max(1, int(tile_combos))
    for start in range(0, n_combos, tile_combos):
        stop = min(n_combos, start + tile_combos)
        tile = combos[start:stop]
        unique_snps = np.unique(tile)
        local = np.searchsorted(unique_snps, tile).astype(np.int64)
        yield slice(start, stop), unique_snps, local
