"""The linear-time decoders of the topology front end against references.

``edge_table`` peels the lowest set bit of each nonzero row word; the
reference unpacks whole rows with ``np.unpackbits``.  ``pair_index_arrays``
gathers from one by-``j`` triangle template; the reference is the closed
form it replaced (float sqrt estimate plus integer correction).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.vectorized import (
    CACHE_BLOCK,
    _blocks,
    chunk_bits,
    edge_table,
    pair_index_arrays,
)


def unpack_reference(rows_flat: np.ndarray, n: int):
    """Edge table by unpacking every row bit: the decode ``edge_table``
    must reproduce array for array."""
    bits = np.unpackbits(
        np.ascontiguousarray(rows_flat).view(np.uint8), axis=1,
        bitorder="little",
    )
    eS, eD = np.nonzero(bits)
    return eS, eD, eS - eS % n + eD


def sqrt_reference(counts):
    """The closed-form pair decode ``pair_index_arrays`` replaced."""
    counts = np.asarray(counts, dtype=np.int64)
    pcs = counts * (counts - 1) >> 1
    total = int(pcs.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    starts = np.repeat(np.cumsum(pcs) - pcs, pcs)
    t = np.arange(total, dtype=np.int64) - starts
    j = ((1.0 + np.sqrt(8.0 * t.astype(np.float64) + 1.0)) * 0.5).astype(
        np.int64
    )
    for _ in range(2):
        j -= j * (j - 1) >> 1 > t
        j += (j + 1) * j >> 1 <= t
    return t - (j * (j - 1) >> 1), j


def assert_edge_tables_equal(rows, n, chunk=None):
    got = edge_table(rows, n, chunk)
    want = unpack_reference(rows, n)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
        assert g.dtype == np.int64


class TestEdgeTable:
    ALL = np.uint64(0xFFFFFFFFFFFFFFFF)

    def test_all_ones_words_take_64_peels(self):
        # every word full: 64 peels per word, bit 63 included
        rows = np.full((5, 3), self.ALL, dtype=np.uint64)
        assert_edge_tables_equal(rows, 192)
        assert len(edge_table(rows, 192)[0]) == 5 * 192

    def test_bit_63_alone(self):
        rows = np.zeros((4, 2), dtype=np.uint64)
        rows[1, 0] = np.uint64(1) << np.uint64(63)
        rows[3, 1] = np.uint64(1) << np.uint64(63) | np.uint64(1)
        assert_edge_tables_equal(rows, 128)
        _, eD, _ = edge_table(rows, 128)
        assert eD.tolist() == [63, 64, 127]

    def test_empty_and_zero_rows(self):
        assert_edge_tables_equal(np.zeros((0, 1), dtype=np.uint64), 0)
        assert_edge_tables_equal(np.zeros((6, 2), dtype=np.uint64), 100)

    @pytest.mark.parametrize("density", [0.02, 0.3, 0.9])
    def test_random_rows_batch(self, density):
        rng = np.random.default_rng(int(density * 100))
        B, n = 3, 150
        W = (n + 63) >> 6
        bits = rng.random((B * n, W * 64)) < density
        bits[:, n:] = False  # tail-clean padding
        rows = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
        assert_edge_tables_equal(rows, n)

    def test_smallest_chunk(self):
        # chunk = 1 << 15 bits is 512 words per peel block: many blocks,
        # words with 1..64 bits straddling block seams
        rng = np.random.default_rng(7)
        R, W = 300, 9
        words = rng.integers(0, np.iinfo(np.int64).max, (R, W), dtype=np.int64)
        words = words.view(np.uint64)
        words[::7] = self.ALL
        words[rng.random((R, W)) < 0.3] = 0
        rows = np.ascontiguousarray(words)
        assert chunk_bits(1e-6) == 1 << 15
        assert_edge_tables_equal(rows, W * 64, chunk=1 << 15)
        assert_edge_tables_equal(rows, W * 64, chunk=64)


class TestPairIndexArrays:
    def check(self, counts):
        got = pair_index_arrays(np.asarray(counts))
        want = sqrt_reference(counts)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize(
        "counts",
        [[], [0], [1], [2], [0, 1, 2], [2, 0, 1, 2], [3, 1, 0, 5, 2], [64, 65, 1]],
    )
    def test_small_groups(self, counts):
        self.check(counts)

    def test_no_pairs_are_empty_int64(self):
        i, j = pair_index_arrays(np.array([0, 1, 1]))
        assert len(i) == len(j) == 0
        assert i.dtype == j.dtype == np.int64

    def test_random_degrees(self):
        rng = np.random.default_rng(3)
        self.check(rng.integers(0, 40, 500))

    def test_hub_of_5000(self):
        # one 5000-degree hub among small rows: 12.5M pairs
        counts = [3, 5000, 0, 2]
        i, j = pair_index_arrays(np.asarray(counts))
        ri, rj = sqrt_reference(counts)
        assert np.array_equal(i, ri) and np.array_equal(j, rj)
        del ri, rj
        hub = slice(3, 3 + 5000 * 4999 // 2)
        assert int(j[hub].max()) == 4999 and bool((i[hub] < j[hub]).all())

    def test_block_whose_one_group_exceeds_cache_block(self):
        # the kernels decode per _blocks run; a 400-row makes 79 800
        # pairs, more than one CACHE_BLOCK, so it is a run of its own
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 30, 2000)
        counts[1000] = 400
        pcs = counts * (counts - 1) >> 1
        assert pcs[1000] > CACHE_BLOCK
        runs = list(_blocks(pcs, CACHE_BLOCK))
        assert (1000, 1001) in runs
        for lo, hi in runs:
            self.check(counts[lo:hi])
