"""Shared word-level kernels of the CPU/GPU approaches.

Two families of kernels build the ``3^k x 2`` frequency tables of a k-way
interaction (``k`` between :data:`MIN_ORDER` and :data:`MAX_ORDER`):

* the **naïve** kernel (approach V1 on both devices): three genotype planes
  per SNP over *all* samples, with the phenotype bit-vector (and its
  negation) used to split every genotype-combination count into cases and
  controls;
* the **phenotype-split** kernel (approaches V2–V4): per-class planes with
  the genotype-2 plane inferred by ``NOR`` on the fly.

The kernels are fully vectorised over a batch of SNP k-tuples: the inner
``3^k``-combination loop is expressed as a broadcast over a k-dimensional
``(3, ..., 3)`` genotype grid, and the per-word population counts are
reduced with the width-generic :func:`repro.bitops.popcount.popcount` — the
kernels accept planes in either machine-word layout (``uint32`` or
``uint64``; the wide layout halves the element count of every AND/POPCNT).
Both kernels are bit-exact with the
:func:`repro.core.contingency.contingency_oracle` construction (property
tested at several orders and both layouts), and both charge their dynamic
instruction counts to an :class:`~repro.bitops.ops.OpCounter` using
order-parametric instruction mixes.

Charging is always per **paper** (32-bit) word: the ``charge_*`` helpers
convert machine words through the layout's
:attr:`~repro.bitops.packing.WordLayout.paper_words` ratio at the charging
boundary, so at the paper's ``k = 3`` the mixes reduce to the §IV
accounting — 162 instructions per word for the naïve kernel, 57 for the
split kernel — regardless of the execution word width.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.bitops.ops import OpCounter
from repro.bitops.packing import paper_word_ratio as _paper_word_ratio
from repro.bitops.popcount import HAS_BITWISE_COUNT, popcount_sum

__all__ = [
    "MIN_ORDER",
    "MAX_ORDER",
    "check_order",
    "n_cells",
    "naive_ops_per_combo_word",
    "split_ops_per_combo_word",
    "NAIVE_OPS_PER_COMBO_WORD",
    "SPLIT_OPS_PER_COMBO_WORD",
    "naive_tables",
    "split_class_counts",
    "split_tables",
    "charge_naive_ops",
    "charge_split_ops",
]

#: Smallest interaction order the kernels support (pairwise).
MIN_ORDER: int = 2

#: Largest interaction order the kernels support.  The ``3^k`` genotype grid
#: and the ``nCr(M, k)`` rank space both explode beyond this; 5 keeps the
#: intermediate broadcast arrays within sane memory bounds.
MAX_ORDER: int = 5


def check_order(order: int) -> int:
    """Validate an interaction order and return it as a plain ``int``."""
    order = int(order)
    if not MIN_ORDER <= order <= MAX_ORDER:
        raise ValueError(
            f"interaction order must be in [{MIN_ORDER}, {MAX_ORDER}]; got {order}"
        )
    return order


def n_cells(order: int) -> int:
    """Number of genotype-combination cells of a k-way table: ``3^k``."""
    return 3 ** check_order(order)


def naive_ops_per_combo_word(order: int = 3) -> Dict[str, float]:
    """Dynamic instruction mix of the naïve kernel, per combination per word.

    Per packed word each combination loads the 3 planes of its ``k`` SNPs
    plus the phenotype word, and each of the ``3^k`` genotype cells costs
    ``k - 1`` ANDs to combine the planes, 2 ANDs for the case/control masks,
    2 POPCNTs and 2 ADDs.  At ``k = 3`` this is the paper's
    "27 x 6 = 162 compute instructions" accounting.
    """
    order = check_order(order)
    cells = float(3**order)
    return {
        "LOAD": 3.0 * order + 1.0,
        "AND": (order + 1.0) * cells,
        "POPCNT": 2.0 * cells,
        "ADD": 2.0 * cells,
    }


def split_ops_per_combo_word(order: int = 3) -> Dict[str, float]:
    """Dynamic instruction mix of the phenotype-split kernel.

    Per combination and per packed word *of one phenotype class*: ``2k``
    loads, ``k`` NORs (each emulated as OR + XOR) to infer the genotype-2
    planes, and per genotype cell ``k - 1`` ANDs, one POPCNT and one ADD.
    At ``k = 3`` this matches the paper's "(3 NOR + 1 AND + 1 POPCNT) per
    combination -> 57 instructions" count.
    """
    order = check_order(order)
    cells = float(3**order)
    return {
        "LOAD": 2.0 * order,
        "NOR": float(order),
        "OR": float(order),
        "XOR": float(order),
        "AND": (order - 1.0) * cells,
        "POPCNT": 1.0 * cells,
        "ADD": 1.0 * cells,
    }


#: The paper's third-order instances of the order-parametric mixes, kept as
#: module constants for the performance models and the test-suite pins.
NAIVE_OPS_PER_COMBO_WORD: Dict[str, float] = naive_ops_per_combo_word(3)
SPLIT_OPS_PER_COMBO_WORD: Dict[str, float] = split_ops_per_combo_word(3)


def charge_naive_ops(
    counter: OpCounter,
    n_combos: int,
    n_words: int,
    order: int = 3,
    word_ratio: int = 1,
) -> None:
    """Charge the naïve-kernel instruction mix for a batch to ``counter``.

    ``n_words`` counts *machine* words; ``word_ratio`` is the layout's
    paper-words-per-machine-word conversion applied at this charging
    boundary.  Each mnemonic's total is rounded once at the end (not
    truncated per term), so fractional per-word mixes charge exactly.
    """
    scale = n_combos * n_words * word_ratio
    for mnemonic, per in naive_ops_per_combo_word(order).items():
        if mnemonic == "LOAD":
            counter.add_load(int(round(per * scale)))
        else:
            counter.add(mnemonic, int(round(per * scale)))


def charge_split_ops(
    counter: OpCounter,
    n_combos: int,
    n_words_total: int,
    order: int = 3,
    word_ratio: int = 1,
) -> None:
    """Charge the split-kernel mix; ``n_words_total`` sums both classes.

    Machine words are converted to paper words through ``word_ratio``, and
    each mnemonic's total is rounded once at the end (not truncated).
    """
    scale = n_combos * n_words_total * word_ratio
    for mnemonic, per in split_ops_per_combo_word(order).items():
        if mnemonic == "LOAD":
            counter.add_load(int(round(per * scale)))
        else:
            counter.add(mnemonic, int(round(per * scale)))


def _buffers(order: int, n_combos: int, n_words: int, dtype) -> tuple[np.ndarray, ...]:
    """Every temporary of one kernel call, carved from one allocation.

    Returns ``(selected, sub, spare, head, popcounts)``: the plane-major
    ``(k, 3, T, W)`` stack of each position's three genotype planes, two
    flat buffers of one ``(3^(k-1), T, W)`` grid each, a ``(T, W)`` row and
    a ``uint8`` grid for the per-word popcounts.  One allocation per call
    instead of one per temporary keeps the allocator reusing the same warm
    pages from call to call.
    """
    itemsize = np.dtype(dtype).itemsize
    block = n_combos * n_words
    grid_elems = 3 ** (order - 1) * block
    stack_elems = order * 3 * block
    word_bytes = (stack_elems + 2 * grid_elems + block) * itemsize
    buf = np.empty(word_bytes + grid_elems, dtype=np.uint8)
    words = buf[:word_bytes].view(dtype)
    sub_end = stack_elems + grid_elems
    return (
        words[:stack_elems].reshape(order, 3, n_combos, n_words),
        words[stack_elems:sub_end],
        words[sub_end : sub_end + grid_elems],
        words[sub_end + grid_elems :].reshape(n_combos, n_words),
        buf[word_bytes:],
    )


def _grid_counts(buffers: tuple[np.ndarray, ...], masks, out: np.ndarray) -> None:
    """``3^k`` popcounts of every genotype cell into ``out[:, :, m]``.

    ``buffers`` comes from :func:`_buffers` with its ``selected`` stack
    filled; each cell's AND of the k selected planes is further ANDed with
    ``masks[m]`` (``None``: unmasked) and counted into column ``m`` of
    ``out`` (``(T, 3^k, len(masks))``).  The cell order is the canonical
    big-endian radix-3 convention of
    :func:`repro.core.contingency.combination_cell_index`: the first SNP of
    the combination is the most significant genotype digit.

    The most significant digit is walked, so the broadcast never exceeds
    the ``(3^(k-1), T, W)`` sub-grid plus one grid of the same size — the
    two live grids the working-set budget sizes tiles for.  Cells lead the
    layout, so every AND streams whole contiguous ``(T, W)`` blocks.
    """
    selected, sub_flat, spare_flat, head, popcounts = buffers
    order, _, n_combos, n_words = selected.shape
    block = n_combos * n_words
    # Broadcast positions 1..k-1 into the sub-grid, alternating between the
    # two flat buffers so that the last step lands in ``sub_flat``.
    sub_grid, cells = selected[1], 3
    for step in range(order - 2):
        target = sub_flat if (order - 3 - step) % 2 == 0 else spare_flat
        view = target[: cells * 3 * block].reshape(cells, 3, n_combos, n_words)
        np.bitwise_and(sub_grid[:, None], selected[step + 2][None], out=view)
        cells *= 3
        sub_grid = view.reshape(cells, n_combos, n_words)

    grid = spare_flat.reshape(cells, n_combos, n_words)
    popcounts = popcounts.reshape(cells, n_combos, n_words)
    for g0 in range(3):
        span = slice(g0 * cells, (g0 + 1) * cells)
        for column, mask in enumerate(masks):
            # (head & mask) & sub_grid: the mask costs one (T, W) AND.
            row = selected[0, g0]
            if mask is not None:
                row = np.bitwise_and(row, mask, out=head)
            np.bitwise_and(row[None], sub_grid, out=grid)
            if HAS_BITWISE_COUNT:
                np.bitwise_count(grid, out=popcounts)
                popcounts.sum(axis=-1, dtype=np.int64, out=out[:, span, column].T)
            else:
                out[:, span, column] = popcount_sum(grid).T


def naive_tables(
    planes: np.ndarray,
    phenotype_words: np.ndarray,
    combos: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Naïve frequency-table construction (approach V1), any order k.

    Parameters
    ----------
    planes:
        ``(n_snps, 3, n_words)`` packed bit-planes over all samples
        (``uint32`` or ``uint64``; word views are fine — word passes slice
        them).
    phenotype_words:
        ``(n_words,)`` packed phenotype (bit set = case) in the same layout
        as ``planes``.  Padding bits are zero, so the case/control masks
        never count padding samples.
    combos:
        ``(n_combos, k)`` strictly increasing SNP index tuples.

    Returns
    -------
    numpy.ndarray
        ``(n_combos, 3^k, 2)`` frequency tables.
    """
    combos = np.asarray(combos, dtype=np.int64)
    order = check_order(combos.shape[1])
    n_combos, n_words = combos.shape[0], planes.shape[2]
    phen = np.asarray(phenotype_words, dtype=planes.dtype)
    # The padding bits of the planes are zero, so AND-ing with ~phenotype is
    # safe even though ~phenotype has the padding bits set.
    notphen = np.bitwise_not(phen)
    buffers = _buffers(order, n_combos, n_words, planes.dtype)
    for stack, snps in zip(buffers[0], combos.T):
        stack[:] = planes[snps].transpose(1, 0, 2)
    tables = np.empty((n_combos, 3**order, 2), dtype=np.int64)
    _grid_counts(buffers, (notphen, phen), tables)
    if counter is not None:
        charge_naive_ops(
            counter, n_combos, n_words, order, word_ratio=_paper_word_ratio(planes)
        )
    return tables


def split_class_counts(
    class_planes: np.ndarray,
    padding_mask: np.ndarray,
    combos: np.ndarray,
) -> np.ndarray:
    """Per-class ``3^k`` counts with the genotype-2 plane inferred by NOR.

    Parameters
    ----------
    class_planes:
        ``(n_snps, 2, n_words)`` planes of one phenotype class (``uint32``
        or ``uint64``; word views are fine — word passes slice them).
    padding_mask:
        ``(n_words,)`` mask of valid sample bits for the class (clears the
        padding bits that the NOR would otherwise set), same layout as the
        planes.
    combos:
        ``(n_combos, k)`` strictly increasing SNP index tuples.

    Returns
    -------
    numpy.ndarray
        ``(n_combos, 3^k)`` counts for this class.
    """
    combos = np.asarray(combos, dtype=np.int64)
    order = check_order(combos.shape[1])
    n_combos, n_words = combos.shape[0], class_planes.shape[2]
    mask = np.asarray(padding_mask, dtype=class_planes.dtype)
    buffers = _buffers(order, n_combos, n_words, class_planes.dtype)
    for stack, snps in zip(buffers[0], combos.T):
        stack[:2] = class_planes[snps].transpose(1, 0, 2)
        inferred = stack[2]
        np.bitwise_or(stack[0], stack[1], out=inferred)
        np.bitwise_not(inferred, out=inferred)
        np.bitwise_and(inferred, mask, out=inferred)
    counts = np.empty((n_combos, 3**order), dtype=np.int64)
    _grid_counts(buffers, (None,), counts[:, :, None])
    return counts


def split_tables(
    control_planes: np.ndarray,
    case_planes: np.ndarray,
    control_mask: np.ndarray,
    case_mask: np.ndarray,
    combos: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Phenotype-split frequency-table construction (approaches V2–V4).

    Returns ``(n_combos, 3^k, 2)`` tables: column 0 from the control planes,
    column 1 from the case planes.
    """
    combos = np.asarray(combos, dtype=np.int64)
    controls = split_class_counts(control_planes, control_mask, combos)
    cases = split_class_counts(case_planes, case_mask, combos)
    if counter is not None:
        n_words_total = control_planes.shape[2] + case_planes.shape[2]
        charge_split_ops(
            counter,
            combos.shape[0],
            n_words_total,
            combos.shape[1],
            word_ratio=_paper_word_ratio(control_planes),
        )
    return np.stack([controls, cases], axis=-1)
