"""Property tests for the sparse streaming CDS engine (ISSUE 9).

Random *possibly-disconnected* adjacency batches — drawn to produce many
small components, the regime the per-component decomposition must get
right — are run through :func:`repro.core.sparse.compute_cds_sparse`
under every priority scheme, both rule modes, every execution-tier
forcing (``dense_cutoff`` 0/2/8/huge) and a tiny chunk budget, and every
element's gateway mask AND :class:`PruneStats` must equal the scalar
oracle :func:`repro.core.cds.compute_cds`.

This subsumes the dense engine's equivalence property: the sparse engine
routes small components through :class:`BatchCDSEngine` sub-batches and
large ones through the streamed CSR kernels, so a passing run pins both
tiers and their stats aggregation (removals add across components,
rounds max).  ``TestBigTierProbes`` runs the big tier on both of its
membership probes, packed word rows and sorted edge keys, chosen by the
memory budget."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.cds import compute_cds
from repro.core.marking import marked_mask
from repro.core.priority import SCHEMES
from repro.core.reduction import prune
from repro.core.sparse import CSRBatch, SparseCDSEngine, compute_cds_sparse
from repro.core.vectorized import DEFAULT_MEMORY_BUDGET_MB, flags_to_masks


@st.composite
def sparse_batches(draw):
    """Batches of 1-3 sparse graphs: n crossing the word boundary, edge
    probability low enough that disconnection is the common case."""
    n = draw(st.sampled_from([3, 9, 16, 31, 63, 64, 65, 90]))
    b = draw(st.integers(1, 3))
    p_milli = draw(st.integers(10, 120))  # edge probability 1%..12%
    batch = []
    for _ in range(b):
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.integers(0, 999)) < p_milli:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        batch.append(adj)
    energies = [
        [float(draw(st.integers(1, 1000))) / 10.0 for _ in range(n)]
        for _ in range(b)
    ]
    return batch, energies


class TestSparseEngineEquivalence:
    @given(
        sparse_batches(),
        st.sampled_from(sorted(SCHEMES)),
        st.booleans(),
        st.sampled_from([0, 2, 8, 10**6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_scalar(
        self, payload, scheme_name, fixed_point, dense_cutoff
    ):
        batch, energies = payload
        res = compute_cds_sparse(
            batch, scheme_name, energies=energies,
            fixed_point=fixed_point, dense_cutoff=dense_cutoff,
        )
        for b, adj in enumerate(batch):
            want = compute_cds(
                adj, scheme_name, energy=energies[b], fixed_point=fixed_point
            )
            assert res[b].gateway_mask == want.gateway_mask
            assert res[b].stats == want.stats

    @given(
        sparse_batches(),
        st.lists(st.integers(4, 24), min_size=1, max_size=3),
        st.sampled_from(sorted(SCHEMES)),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([0, 10**6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_max_rounds_cap_matches_scalar(
        self, payload, paths, scheme_name, max_rounds, dense_cutoff
    ):
        """Fixed-point rounds capped at ``max_rounds``, on both probes.

        Every element gets extra squared-path components appended: their
        first round removes nodes, so a second round runs and a cap of
        one freezes them unstable.  ``dense_cutoff`` 0 sends every
        component through the big tier, 10**6 through dense sub-batches
        (``TestBigTierProbes`` forces each of the big tier's probes).
        """
        batch, energies = payload
        n0 = len(batch[0])
        n = n0 + sum(paths)
        adjs, levels = [], []
        for adj, energy in zip(batch, energies):
            adj = adj + [0] * (n - n0)
            start = n0
            for length in paths:
                for i in range(start, start + length):
                    for j in (i + 1, i + 2):
                        if j < start + length:
                            adj[i] |= 1 << j
                            adj[j] |= 1 << i
                start += length
            adjs.append(adj)
            levels.append(energy + [float(v % 97) + 1.0 for v in range(n0, n)])
        scheme = SCHEMES[scheme_name]
        engine = SparseCDSEngine(
            scheme, fixed_point=True, max_rounds=max_rounds,
            dense_cutoff=dense_cutoff,
        )
        flags, stats = engine.run(
            CSRBatch.from_adjacency(adjs), np.asarray(levels)
        )
        masks = flags_to_masks(flags)
        for b, adj in enumerate(adjs):
            want_mask, want_stats = prune(
                adj, marked_mask(adj), scheme, levels[b],
                fixed_point=True, max_rounds=max_rounds,
            )
            assert masks[b] == want_mask
            assert stats[b] == want_stats

    @given(sparse_batches(), st.sampled_from(sorted(SCHEMES)))
    @settings(max_examples=20, deadline=None)
    def test_budget_never_changes_results(self, payload, scheme_name):
        batch, energies = payload
        default = compute_cds_sparse(batch, scheme_name, energies=energies)
        tiny = compute_cds_sparse(
            batch, scheme_name, energies=energies, memory_budget_mb=0.001
        )
        for a, b in zip(default, tiny):
            assert a.gateway_mask == b.gateway_mask
            assert a.stats == b.stats


@st.composite
def word_boundary_batches(draw):
    """Batches of 1-3 random graphs at the word-boundary sizes, with
    energy levels that tie at the key quantum.

    Levels are a few integer bases plus offsets under half the schemes'
    1e-9 quantum, so distinct raw floats quantize to one key component
    and only the id tiebreak separates the nodes."""
    n = draw(st.sampled_from([63, 64, 65, 127, 128, 129]))
    b = draw(st.integers(1, 3))
    mean_deg = draw(st.sampled_from([2.0, 5.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = []
    for _ in range(b):
        upper = np.triu(rng.random((n, n)) < mean_deg / (n - 1), 1)
        sym = upper | upper.T
        batch.append(
            [sum(1 << int(j) for j in np.flatnonzero(row)) for row in sym]
        )
    bases = rng.integers(1, 4, size=(b, n)).astype(np.float64)
    offsets = rng.choice([0.0, 3e-10, -4e-10], size=(b, n))
    return batch, bases + offsets


class TestBigTierProbes:
    @given(
        word_boundary_batches(),
        st.sampled_from(sorted(SCHEMES)),
        st.booleans(),
        st.sampled_from([1, 1_000]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_word_and_key_probe_match_scalar(
        self, payload, scheme_name, fixed_point, max_rounds, word_rows
    ):
        """The big tier (``dense_cutoff=2``) on either membership probe.

        A generous budget admits the packed word rows of these batches
        (rows over all ``B·n`` flat ids); a budget of half their size
        forces the sorted-edge-key search.  Flags and stats must equal
        the scalar reference either way, also when a one-round cap
        freezes a fixed-point run."""
        batch, levels = payload
        B, n = len(batch), len(batch[0])
        rows_bytes = B * n * ((n + 63) // 64) * 8
        budget = (
            DEFAULT_MEMORY_BUDGET_MB if word_rows else rows_bytes / 2 / 2**20
        )
        engine = SparseCDSEngine(
            scheme_name, fixed_point=fixed_point, max_rounds=max_rounds,
            memory_budget_mb=budget, dense_cutoff=2,
        )
        assert engine.word_rows_fit(B, n) is word_rows
        flags, stats = engine.run(CSRBatch.from_adjacency(batch), levels)
        masks = flags_to_masks(flags)
        for b, adj in enumerate(batch):
            want_mask, want_stats = prune(
                adj, marked_mask(adj), SCHEMES[scheme_name], list(levels[b]),
                fixed_point=fixed_point, max_rounds=max_rounds,
            )
            assert masks[b] == want_mask
            assert stats[b] == want_stats
