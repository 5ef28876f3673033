"""Working-set budget, tile rule and bit-identity of tiled execution.

The NumPy kernels size every batch to the host's per-core L2
(:func:`repro.engine.tiling.working_set_budget`): tiles of combinations,
and word passes when even a floor tile overflows it.  These tests pin the
L2 detection (sysfs parsing, entry choice, catalog fallback, one read per
process), the tile rule, and that no budget — tiny or huge — changes a
single count or score.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.numpy_backend import NumpyBackend
from repro.core.approaches import get_approach
from repro.core.combinations import generate_combinations
from repro.core.contingency import contingency_oracle_many
from repro.core.scoring import get_objective
from repro.datasets import SyntheticConfig, generate_dataset
from repro.devices.catalog import cpu
from repro.engine import tiling
from repro.engine.tiling import (
    MAX_TILE_COMBOS,
    MIN_TILE_COMBOS,
    detect_l2_bytes,
    parse_cache_size,
    tile_plan,
)

CI3_L2_BYTES = int(cpu("CI3").cache("L2").size_kib * 1024)


def _fake_sysfs(root, entries):
    """A sysfs-style cache directory with one ``index<i>`` per entry."""
    for i, (level, kind, size) in enumerate(entries):
        index = root / f"index{i}"
        index.mkdir(parents=True)
        (index / "level").write_text(f"{level}\n")
        (index / "type").write_text(f"{kind}\n")
        (index / "size").write_text(f"{size}\n")
    return root


# ---------------------------------------------------------------------------
# L2 detection
# ---------------------------------------------------------------------------


class TestL2Detection:
    @pytest.mark.parametrize(
        "text, expected",
        [("48K", 48 * 1024), ("2048K", 2 * 1024**2), ("1M", 1024**2), ("512", 512)],
    )
    def test_parse_cache_size(self, text, expected):
        assert parse_cache_size(text + "\n") == expected

    def test_picks_level2_unified(self, tmp_path):
        root = _fake_sysfs(
            tmp_path,
            [
                (1, "Data", "48K"),
                (1, "Instruction", "32K"),
                (2, "Unified", "2048K"),
                (3, "Unified", "107520K"),
            ],
        )
        assert detect_l2_bytes(root) == 2 * 1024**2

    def test_picks_level2_data_not_instruction(self, tmp_path):
        root = _fake_sysfs(
            tmp_path, [(1, "Data", "32K"), (2, "Instruction", "512K"), (2, "Data", "1M")]
        )
        assert detect_l2_bytes(root) == 1024**2

    def test_falls_back_to_catalog_when_missing(self, tmp_path):
        assert detect_l2_bytes(tmp_path / "absent") == CI3_L2_BYTES
        l1_only = _fake_sysfs(tmp_path / "l1", [(1, "Data", "48K")])
        assert detect_l2_bytes(l1_only) == CI3_L2_BYTES

    def test_falls_back_to_catalog_when_unreadable(self, tmp_path):
        root = _fake_sysfs(tmp_path, [(2, "Unified", "lots")])
        assert detect_l2_bytes(root) == CI3_L2_BYTES
        size = root / "index0" / "size"
        size.unlink()
        size.mkdir()  # reading a directory raises OSError
        assert detect_l2_bytes(root) == CI3_L2_BYTES

    def test_budget_read_once_per_process(self, monkeypatch):
        reads = []
        monkeypatch.setattr(tiling, "_budget_bytes", None)
        monkeypatch.setattr(tiling, "detect_l2_bytes", lambda: reads.append(1) or 4096)
        assert tiling.working_set_budget() == 4096
        assert tiling.working_set_budget() == 4096
        assert reads == [1]


# ---------------------------------------------------------------------------
# tile rule
# ---------------------------------------------------------------------------


class TestTileRule:
    @given(
        n_combos=st.integers(min_value=0, max_value=5000),
        order=st.integers(min_value=2, max_value=5),
        n_words=st.integers(min_value=0, max_value=10**6),
        itemsize=st.sampled_from([4, 8]),
        budget=st.integers(min_value=1, max_value=1 << 26),
    )
    @settings(max_examples=100, deadline=None)
    def test_tiles_fit_the_budget(self, n_combos, order, n_words, itemsize, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tiling, "_budget_bytes", budget)
            tile, words = tile_plan(n_combos, order, n_words, itemsize)
        assert 1 <= tile <= MAX_TILE_COMBOS
        assert 1 <= words <= max(1, n_words)
        per_combo_word = 2 * 3 ** (order - 1) * itemsize
        floor = min(MIN_TILE_COMBOS, max(1, n_combos))
        if per_combo_word * floor <= budget:
            assert per_combo_word * tile * words <= budget

    def test_benchmark_shapes_at_2mib(self, monkeypatch):
        monkeypatch.setattr(tiling, "_budget_bytes", 2 * 1024**2)
        # 16 words per class: the 512 ceiling still applies.
        assert tile_plan(2048, 3, 16, 8) == (512, 16)
        # 128 words per class: 113-combination tiles fit the 2 MiB L2.
        assert tile_plan(2048, 3, 128, 8) == (113, 128)
        # Whole-genome words: floor tiles over L2-sized word passes.
        assert tile_plan(2048, 3, 10**5, 8) == (MIN_TILE_COMBOS, 455)


# ---------------------------------------------------------------------------
# bit-identity under any budget
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def passes_dataset():
    """Unbalanced, odd-sized classes of 7-14 words: a few-KiB budget splits
    the words of every order into passes."""
    return generate_dataset(
        SyntheticConfig(n_snps=9, n_samples=701, case_fraction=0.37, seed=13)
    )


@pytest.mark.parametrize("budget", [4 * 1024, 1 << 30])
@pytest.mark.parametrize("layout", ["u32", "u64"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_bit_identical_under_any_budget(passes_dataset, monkeypatch, budget, layout, order):
    monkeypatch.setattr(tiling, "_budget_bytes", budget)
    words_seen = []
    original = NumpyBackend.split_class_counts

    def spy(self, class_planes, padding_mask, combos):
        words_seen.append(class_planes.shape[2])
        return original(self, class_planes, padding_mask, combos)

    monkeypatch.setattr(NumpyBackend, "split_class_counts", spy)

    dataset = passes_dataset
    combos = generate_combinations(dataset.n_snps, order)
    oracle = contingency_oracle_many(dataset.genotypes, dataset.phenotypes, combos)
    objective = get_objective("k2")
    objective.prepare(dataset)
    expected = objective.score(oracle)
    for name in ("cpu-v1", "cpu-v2", "cpu-v4"):  # naive, split, blocked split
        approach = get_approach(name, word_layout=layout, backend="numpy")
        encoded = approach.prepare(dataset)
        assert np.array_equal(approach.build_tables(encoded, combos), oracle), name
        fused = approach.score_combinations(encoded, combos, objective)
        assert np.array_equal(fused, expected), name

    split = encoded.split
    n_words = max(split.control_planes.shape[2], split.case_planes.shape[2])
    if budget < 1 << 20:
        assert min(words_seen) < n_words  # the words really split into passes
    else:
        assert min(words_seen) >= min(
            split.control_planes.shape[2], split.case_planes.shape[2]
        )


def test_kernels_without_bitwise_count(passes_dataset, monkeypatch):
    """The NumPy < 2 popcount fallback of the kernel core stays exact."""
    from repro.core.approaches import _kernels

    monkeypatch.setattr(_kernels, "HAS_BITWISE_COUNT", False)
    combos = generate_combinations(passes_dataset.n_snps, 3)
    oracle = contingency_oracle_many(
        passes_dataset.genotypes, passes_dataset.phenotypes, combos
    )
    for name in ("cpu-v1", "cpu-v2"):
        approach = get_approach(name, backend="numpy")
        tables = approach.build_tables(approach.prepare(passes_dataset), combos)
        assert np.array_equal(tables, oracle), name
