"""Packed-word similarity kernels on a fixed shape grid.

The numpy kernels in :mod:`repro.core.bitmask` are the only
implementation of the packed-word primitives, so each one is checked
here against an independent reference computed on the unpacked boolean
matrix.  The grid covers batch sizes 1, a prime, the engine's default
micro-batch and a large batch, and bit lengths that end mid-word (tail
mask active), on one exact word, on two words and across many words.
Float scores must match bit for bit: the kernel and the reference do
the same integer counts and then the same IEEE division.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitmask import (
    WORD_BITS,
    batch_and_popcount,
    batch_containment,
    batch_jaccard,
    batch_or,
    batch_popcount,
    pack_bool_matrix,
    segment_popcount,
    words_for_bits,
)
from repro.core.path import (
    NUMPY_KERNELS,
    PackedPathBatch,
    PathLayout,
    batch_path_similarity,
    batch_per_tap_similarity,
    path_similarity,
    per_tap_similarity,
)

BATCH_SIZES = (1, 7, 64, 1000)
BIT_LENGTHS = (37, 64, 128, 777)

grid = pytest.mark.parametrize(
    "n,bits",
    [(n, bits) for bits in BIT_LENGTHS for n in BATCH_SIZES],
)


def _flags(n, bits, seed, density=0.3):
    return np.random.default_rng(seed).random((n, bits)) < density


def _operands(n, bits):
    """``a`` and the two shapes of ``b`` the kernels accept: one row
    broadcast against every row of ``a``, and a matching matrix."""
    seed = n * 10_000 + bits
    fa = _flags(n, bits, seed)
    f_row = _flags(1, bits, seed + 1, density=0.4)
    f_full = _flags(n, bits, seed + 2, density=0.4)
    return fa, [(f_row, pack_bool_matrix(f_row)[0]),
                (f_full, pack_bool_matrix(f_full))]


def _ratio(num, den, empty):
    out = np.full(num.shape, empty, dtype=np.float64)
    nz = den > 0
    out[nz] = num[nz] / den[nz]
    return out


class TestPrimitivesMatchBoolReference:
    @grid
    def test_batch_or(self, n, bits):
        fa = _flags(n, bits, seed=bits)
        expected = pack_bool_matrix(fa.any(axis=0)[None])[0]
        assert np.array_equal(batch_or(pack_bool_matrix(fa)), expected)

    @grid
    def test_batch_popcount(self, n, bits):
        fa = _flags(n, bits, seed=bits)
        counts = batch_popcount(pack_bool_matrix(fa))
        assert counts.dtype == np.int64
        assert np.array_equal(counts, fa.sum(axis=1))

    @grid
    def test_batch_and_popcount(self, n, bits):
        fa, operands = _operands(n, bits)
        wa = pack_bool_matrix(fa)
        for fb, wb in operands:
            assert np.array_equal(
                batch_and_popcount(wa, wb), (fa & fb).sum(axis=1)
            )

    @grid
    def test_batch_containment(self, n, bits):
        fa, operands = _operands(n, bits)
        wa = pack_bool_matrix(fa)
        ones = fa.sum(axis=1)
        for fb, wb in operands:
            expected = _ratio((fa & fb).sum(axis=1), ones, empty=0.0)
            assert np.array_equal(batch_containment(wa, wb), expected)

    @grid
    def test_batch_jaccard(self, n, bits):
        fa, operands = _operands(n, bits)
        wa = pack_bool_matrix(fa)
        for fb, wb in operands:
            expected = _ratio(
                (fa & fb).sum(axis=1), (fa | fb).sum(axis=1), empty=1.0
            )
            assert np.array_equal(batch_jaccard(wa, wb), expected)

    @grid
    def test_segment_popcount(self, n, bits):
        fa = _flags(n, bits, seed=bits)
        nwords = words_for_bits(bits)
        half = nwords // 2
        # A zero-length middle segment and, for one-word rows, a
        # zero-length leading segment too.
        offsets = np.array([0, half, half], dtype=np.intp)
        ends = [half, half, nwords]
        expected = np.stack(
            [
                fa[:, start * WORD_BITS : min(end * WORD_BITS, bits)].sum(
                    axis=1
                )
                for start, end in zip(offsets, ends)
            ],
            axis=1,
        )
        assert np.array_equal(
            segment_popcount(pack_bool_matrix(fa), offsets), expected
        )

    @pytest.mark.parametrize("bits", BIT_LENGTHS)
    def test_empty_and_all_ones_rows(self, bits):
        fa = np.vstack([
            np.zeros((2, bits), dtype=bool),
            np.ones((2, bits), dtype=bool),
            _flags(4, bits, seed=9, density=0.5),
        ])
        wa = pack_bool_matrix(fa)
        for fb in (fa[:1], fa[2:3], _flags(1, bits, seed=10)):
            wb = pack_bool_matrix(fb)[0]
            ones = fa.sum(axis=1)
            hits = (fa & fb).sum(axis=1)
            union = (fa | fb).sum(axis=1)
            assert np.array_equal(
                batch_containment(wa, wb), _ratio(hits, ones, empty=0.0)
            )
            assert np.array_equal(
                batch_jaccard(wa, wb), _ratio(hits, union, empty=1.0)
            )
        # An empty path scores 0 against anything; an empty pair has
        # Jaccard 1 (nothing differs).
        assert batch_containment(wa[:2], wa[2])[0] == 0.0
        assert batch_jaccard(wa[:1], wa[0])[0] == 1.0


class TestBatchedPathSimilarity:
    """The batched path scores equal looping the per-sample ones."""

    LAYOUT = PathLayout(("t0", "t1", "t2", "t3"), (37, 130, 64, 5))

    def _batch(self, n):
        rng = np.random.default_rng(n)
        taps = [rng.random((n, size)) < 0.3 for size in self.LAYOUT.tap_sizes]
        canary_taps = [
            rng.random((1, size)) < 0.5 for size in self.LAYOUT.tap_sizes
        ]
        batch = PackedPathBatch.from_tap_bools(self.LAYOUT, taps)
        canary = PackedPathBatch.from_tap_bools(
            self.LAYOUT, canary_taps
        ).to_paths()[0]
        return batch, canary

    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_path_similarity(self, n):
        batch, canary = self._batch(n)
        expected = [path_similarity(p, canary) for p in batch.to_paths()]
        assert np.array_equal(
            batch_path_similarity(batch, canary.packed_words()), expected
        )

    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_per_tap_similarity(self, n):
        batch, canary = self._batch(n)
        expected = np.stack(
            [per_tap_similarity(p, canary) for p in batch.to_paths()]
        )
        assert np.array_equal(
            batch_per_tap_similarity(batch, canary.packed_words()), expected
        )

    def test_kernels_argument_changes_nothing(self):
        batch, canary = self._batch(7)
        row = canary.packed_words()
        assert NUMPY_KERNELS.name == "numpy"
        assert np.array_equal(
            batch_path_similarity(batch, row, kernels=NUMPY_KERNELS),
            batch_path_similarity(batch, row),
        )
        assert np.array_equal(
            batch_per_tap_similarity(batch, row, kernels=NUMPY_KERNELS),
            batch_per_tap_similarity(batch, row),
        )
