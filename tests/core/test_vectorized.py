"""Equivalence and tail-word tests for the batched vectorized CDS engine.

Every test pins the batch engine against the scalar oracle
(:func:`repro.core.cds.compute_cds` / ``compute_cds_rule_k``) — masks AND
:class:`PruneStats` must be bit-identical.  The n grid deliberately
straddles the uint64 word boundary (63/64/65/127/128) so stray tail bits
in any packed path would surface as a mask mismatch.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.cds import compute_cds
from repro.core.priority import SCHEMES
from repro.core.rule_k import compute_cds_rule_k
from repro.core.vectorized import (
    BatchCDSEngine,
    _peel,
    VectorizedCDSPipeline,
    compute_cds_batch,
    compute_cds_rule_k_batch,
    edge_table,
    flags_to_masks,
    pack_adjacency,
    pack_batch,
    pack_rows,
    pair_index_arrays,
    popcount_rows,
    tail_mask,
    words_for,
)
from repro.errors import ConfigurationError, InvariantViolation
from repro.graphs.generators import (
    clique,
    path_graph,
    random_gnp_connected,
    star_graph,
)

WORD_BOUNDARY_NS = [63, 64, 65, 127, 128]


def rand_adj(n: int, p: float, rng: random.Random) -> list[int]:
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def assert_batch_matches_scalar(batch, scheme, energies=None, fixed_point=False):
    res = compute_cds_batch(
        batch, scheme, energies, fixed_point=fixed_point
    )
    for b, adj in enumerate(batch):
        e = energies[b] if energies is not None else None
        want = compute_cds(adj, scheme, energy=e, fixed_point=fixed_point)
        assert res[b].gateway_mask == want.gateway_mask, (scheme, b)
        assert res[b].stats == want.stats, (scheme, b)


class TestPackedTailWords:
    @pytest.mark.parametrize("n", WORD_BOUNDARY_NS)
    def test_pack_rows_strips_stray_high_bits(self, n):
        # rows polluted above bit n-1 must come back tail-clean
        W = words_for(n)
        dirty = [((1 << (W * 64)) - 1) for _ in range(n)]
        packed = pack_rows(dirty, W, n)
        assert int(packed[0, -1]) == int(tail_mask(n))
        # popcounts see exactly n bits per row, never the padding
        assert popcount_rows(packed).tolist() == [n] * n

    def test_tail_mask_values(self):
        assert int(tail_mask(64)) == (1 << 64) - 1
        assert int(tail_mask(63)) == (1 << 63) - 1
        assert int(tail_mask(65)) == 1
        assert int(tail_mask(1)) == 1

    @pytest.mark.parametrize("n", WORD_BOUNDARY_NS)
    def test_equivalence_at_word_boundaries(self, n):
        rng = random.Random(n)
        batch = [rand_adj(n, 0.12, rng) for _ in range(3)]
        energies = [[rng.uniform(1.0, 100.0) for _ in range(n)] for _ in batch]
        for scheme in sorted(SCHEMES):
            assert_batch_matches_scalar(batch, scheme, energies)


class TestBatchEquivalence:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("fixed_point", [False, True])
    def test_mixed_density_batch(self, scheme, fixed_point):
        rng = random.Random(7)
        n = 40
        batch = [rand_adj(n, p, rng) for p in (0.05, 0.2, 0.5, 0.9)]
        energies = [[rng.uniform(1.0, 100.0) for _ in range(n)] for _ in batch]
        assert_batch_matches_scalar(
            batch, scheme, energies, fixed_point=fixed_point
        )

    def test_structured_graphs(self):
        for view in (
            path_graph(65),
            clique(64),
            star_graph(33),
            random_gnp_connected(70, 0.1, rng=3),
        ):
            assert_batch_matches_scalar([list(view.adjacency)], "nd")

    def test_degenerate_inputs(self):
        assert compute_cds_batch([], "id") == []
        res = compute_cds_batch([[0] * 9], "id")
        assert res[0].gateway_mask == 0
        # n == 0 element: rounds bookkeeping matches prune() (1 with rules)
        res = compute_cds_batch([[]], "nd")
        assert res[0].gateway_mask == 0
        assert res[0].stats.rounds == 1
        res = compute_cds_batch([[]], "nr")
        assert res[0].stats.rounds == 0

    def test_inhomogeneous_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            pack_batch([[0, 0], [0, 0, 0]])

    def test_el_scheme_requires_energy(self):
        with pytest.raises(ConfigurationError):
            compute_cds_batch([[2, 1]], "el1")

    def test_energy_shape_validated(self):
        with pytest.raises(ConfigurationError):
            compute_cds_batch([[2, 1]], "el1", [[1.0, 2.0, 3.0]])

    def test_run_rejects_bad_shapes(self):
        eng = BatchCDSEngine("id")
        with pytest.raises(ConfigurationError):
            eng.run(np.zeros((2, 3), dtype=np.uint64))
        with pytest.raises(ConfigurationError):
            eng.run(np.zeros((1, 65, 1), dtype=np.uint64))


class TestRuleKBatch:
    @pytest.mark.parametrize("n", [17, 63, 65])
    def test_matches_scalar_rule_k(self, n):
        rng = random.Random(n * 31)
        batch = [rand_adj(n, 0.15, rng) for _ in range(3)]
        energies = [[rng.uniform(1.0, 100.0) for _ in range(n)] for _ in batch]
        for scheme in sorted(SCHEMES):
            got = compute_cds_rule_k_batch(batch, scheme, energies)
            for b, adj in enumerate(batch):
                want = compute_cds_rule_k(adj, scheme, energy=energies[b])
                assert got[b] == want, (scheme, b)

    def test_empty(self):
        assert compute_cds_rule_k_batch([], "id") == []
        assert compute_cds_rule_k_batch([[]], "id") == [frozenset()]


class TestVectorizedPipeline:
    def test_pipeline_matches_scratch_with_shadow_and_verify(self):
        view = random_gnp_connected(65, 0.08, rng=11)
        pipe = VectorizedCDSPipeline("nd", shadow_check=True, verify=True)
        got = pipe.compute(view)
        want = compute_cds(view, "nd")
        assert got.gateway_mask == want.gateway_mask
        assert got.stats == want.stats

    def test_shadow_check_catches_divergence(self):
        # corrupting the engine output must trip the shadow oracle
        view = random_gnp_connected(30, 0.2, rng=5)
        pipe = VectorizedCDSPipeline("id", shadow_check=True)

        real_run = pipe.engine.run

        def bad_run(packed, energy=None):
            flags, stats = real_run(packed, energy)
            flags = flags.copy()
            flags[0, 0] = ~flags[0, 0]
            return flags, stats

        pipe.engine.run = bad_run
        with pytest.raises(InvariantViolation):
            pipe.compute(view)


class TestHelpers:
    def test_pair_index_arrays_enumerates_all_pairs(self):
        counts = np.array([0, 1, 2, 3, 5])
        i, j = pair_index_arrays(counts)
        assert len(i) == 0 + 0 + 1 + 3 + 10
        # per-group pairs are exactly {(a,b): a<b<c}
        off = 0
        for c in counts:
            k = c * (c - 1) // 2
            got = {(int(a), int(b)) for a, b in zip(i[off:off + k], j[off:off + k])}
            want = {(a, b) for b in range(c) for a in range(b)}
            assert got == want
            off += k

    def test_peel_lists_set_bits_in_order(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, 500, dtype=np.uint64)
        words &= rng.integers(0, 2**63, 500, dtype=np.uint64)
        words[::7] = 0
        words[3] = np.uint64(1) << np.uint64(63)
        k, p = _peel(words)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        want_k, want_p = np.nonzero(bits.reshape(-1, 64))
        assert np.array_equal(k, want_k) and np.array_equal(p, want_p)
        assert len(_peel(np.zeros(0, dtype=np.uint64))[0]) == 0

    def test_flags_to_masks_roundtrip(self):
        flags = np.zeros((2, 70), dtype=bool)
        flags[0, 0] = flags[0, 69] = flags[1, 64] = True
        masks = flags_to_masks(flags)
        assert masks == [(1 << 0) | (1 << 69), 1 << 64]

    def test_pack_adjacency_matches_pack_batch(self):
        adj = [2, 1, 0]
        assert np.array_equal(pack_adjacency(adj), pack_batch([adj])[0])


class TestEdgeTableNonzeroWords:
    """``edge_table`` unpacks only nonzero row words; its output must equal
    a whole-row ``unpackbits`` reference, order included (ascending
    source, then destination)."""

    @staticmethod
    def reference(rows: np.ndarray, n: int):
        bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
        eS, eD = np.nonzero(bits)
        return eS, eD, eS - eS % n + eD

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("chunk", [None, 1 << 15])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.9])
    def test_matches_unpackbits_reference(self, n, chunk, p):
        rng = random.Random(n * 1000 + int(p * 10))
        adjs = [rand_adj(n, p, rng) for _ in range(3)]
        if n > 2:
            # a node with no edges: an all-zero row inside the batch
            for adj in adjs:
                for u in range(n):
                    adj[u] &= ~(1 << 1)
                adj[1] = 0
        rows = pack_batch(adjs).reshape(3 * n, -1)
        got = edge_table(rows, n, chunk)
        for g, w in zip(got, self.reference(rows, n)):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)

    def test_small_chunk_spans_many_words(self):
        """A ``1 << 15``-bit chunk holds 512 words: a dense n = 1000 batch
        is unpacked in dozens of chunks and must still come out whole."""
        rng = random.Random(7)
        adj = rand_adj(300, 0.5, rng) + [0] * 700
        rows = pack_batch([adj]).reshape(1000, -1)
        got = edge_table(rows, 1000, 1 << 15)
        for g, w in zip(got, self.reference(rows, 1000)):
            assert np.array_equal(g, w)
