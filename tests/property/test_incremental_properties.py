"""Property tests for the incremental delta-CDS pipeline (PR 4).

Two layers, each pinned against its from-scratch reference:

1. incrementally maintained adjacency (:meth:`AdHocNetwork.apply_moves`)
   == a full :func:`unit_disk_adjacency` rebuild over random move
   sequences (n ≤ 30: the bitmask-row patch; the edge-list patch above
   the cutoff is pinned in ``tests/graphs/test_adhoc_topology.py``);
2. :class:`DeltaCDSPipeline` gateway masks == :func:`compute_cds` for all
   five schemes over random move sequences with draining energy, and over
   service churn (moves, drains, joins and leaves fed with ``ids``, so
   membership changes are spliced rather than started cold).
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.cds import compute_cds
import repro.core.delta as delta_mod
from repro.core.delta import DeltaCDSPipeline
from repro.core.priority import SCHEMES
from repro.graphs.adhoc import AdHocNetwork
from repro.graphs.unitdisk import unit_disk_adjacency
from repro.service.state import TenantState
from repro.service.updates import Drain, Join, Leave, Move

# small regions force topology churn; mix fractional and full-set moves so
# both the dense/grid patch path and the rebuild fallback are exercised
move_counts = st.integers(1, 100)


@st.composite
def move_sequences(draw):
    n = draw(st.integers(1, 30))
    pts = draw(
        hnp.arrays(
            np.float64,
            (n, 2),
            elements=st.floats(0.0, 60.0, allow_nan=False),
        )
    )
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, n))
        ids = draw(
            st.lists(
                st.integers(0, n - 1), min_size=k, max_size=k, unique=True
            )
        )
        deltas = draw(
            hnp.arrays(
                np.float64,
                (k, 2),
                elements=st.floats(-20.0, 20.0, allow_nan=False),
            )
        )
        steps.append((ids, deltas))
    return pts, steps


class TestIncrementalAdjacency:
    @given(move_sequences())
    @settings(max_examples=150, deadline=None)
    def test_apply_moves_equals_full_rebuild(self, seq):
        pts, steps = seq
        net = AdHocNetwork(pts, 25.0, side=60.0)
        net.adjacency  # prime the cache so every step patches incrementally
        for ids, deltas in steps:
            net.positions[ids] += deltas
            net.apply_moves(ids)
            assert net.adjacency == unit_disk_adjacency(net.positions, 25.0)

    @given(move_sequences())
    @settings(max_examples=60, deadline=None)
    def test_apply_moves_reports_exact_changed_rows(self, seq):
        pts, steps = seq
        net = AdHocNetwork(pts, 25.0, side=60.0)
        prev = list(net.adjacency)
        for ids, deltas in steps:
            net.positions[ids] += deltas
            changed = net.apply_moves(ids)
            cur = net.adjacency
            expect = 0
            for v in range(net.n):
                if cur[v] != prev[v]:
                    expect |= 1 << v
            assert changed == expect
            prev = list(cur)


class TestDeltaPipelineEquivalence:
    @given(move_sequences(), st.sampled_from(sorted(SCHEMES)))
    @settings(max_examples=60, deadline=None)
    def test_masks_and_stats_match_scratch(self, seq, scheme_name):
        pts, steps = seq
        net = AdHocNetwork(pts, 25.0, side=60.0)
        net.adjacency
        n = net.n
        scheme = SCHEMES[scheme_name]
        pipe = DeltaCDSPipeline(scheme)
        energy = np.linspace(30.0, 100.0, n)
        for step_no, (ids, deltas) in enumerate([([], None)] + steps):
            if step_no:
                net.positions[ids] += deltas
                net.apply_moves(ids)
            e = energy if scheme.needs_energy else None
            got = pipe.compute(net, energy=e)
            want = compute_cds(net.snapshot(), scheme, energy=e)
            assert got.gateway_mask == want.gateway_mask
            assert got.stats == want.stats
            # drain so EL keys actually change between steps
            energy -= np.where(
                np.arange(n) % 3 == step_no % 3, 2.0, 0.5
            )

    @given(move_sequences())
    @settings(max_examples=30, deadline=None)
    def test_fixed_point_mode_matches_scratch(self, seq):
        pts, steps = seq
        net = AdHocNetwork(pts, 25.0, side=60.0)
        net.adjacency
        pipe = DeltaCDSPipeline("nd", fixed_point=True)
        for step_no, (ids, deltas) in enumerate([([], None)] + steps):
            if step_no:
                net.positions[ids] += deltas
                net.apply_moves(ids)
            got = pipe.compute(net)
            want = compute_cds(net.snapshot(), "nd", fixed_point=True)
            assert got.gateway_mask == want.gateway_mask


# start sizes straddle the 64-bit word boundaries, so a single join or
# leave changes the packed width W
churn_start_sizes = st.sampled_from([1, 2, 7, 20, 63, 64, 65, 127, 128, 129])
churn_ops = st.tuples(
    st.sampled_from(["move", "drain", "join", "leave"]),
    st.integers(0, 10**6),  # picks a live member, modulo the population
    st.floats(-1.0, 1.0, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
)


@st.composite
def churn_sequences(draw):
    n = draw(churn_start_sizes)
    seed = draw(st.integers(0, 2**31 - 1))
    batches = draw(
        st.lists(st.lists(churn_ops, min_size=1, max_size=4), min_size=1,
                 max_size=5)
    )
    return n, seed, batches


def _churn_update(state: TenantState, op, next_id: int, side: float):
    """The update ``op`` names against the live ``state`` (or None)."""
    kind, pick, a, b = op
    if kind == "join":
        return Join(next_id, side * abs(a), side * abs(b), 5.0 + 90.0 * abs(a))
    if state.n == 0 or (kind == "leave" and state.n == 1):
        return None
    node = state.ids[pick % state.n]
    if kind == "leave":
        return Leave(node)
    if kind == "drain":
        return Drain(node, 10.0 * abs(a))
    x, y = state.positions[state.index_of(node)]
    return Move(
        node,
        float(np.clip(x + 30.0 * a, 0.0, side)),
        float(np.clip(y + 30.0 * b, 0.0, side)),
    )


class TestDeltaPipelineChurn:
    @given(churn_sequences(), st.sampled_from(sorted(SCHEMES)), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_spliced_masks_and_stats_match_scratch(
        self, seq, scheme_name, local
    ):
        # ``local`` takes the topology-local refresh whenever any row is
        # kept; these networks are small enough that by default the
        # engine would mostly rebuild them whole
        if not local:
            self._replay(seq, scheme_name)
            return
        with mock.patch.object(delta_mod, "_MIN_KEPT_WORDS", 0):
            self._replay(seq, scheme_name)

    def _replay(self, seq, scheme_name):
        n, seed, batches = seq
        side = max(40.0, 100.0 * math.sqrt(n / 100))
        state = TenantState(radius=25.0, side=side, scheme=scheme_name)
        rng = np.random.default_rng(seed)
        state.seed_population(
            rng.uniform(0.0, side, size=(n, 2)),
            list(rng.uniform(5.0, 95.0, size=n)),
        )
        scheme = SCHEMES[scheme_name]
        pipe = DeltaCDSPipeline(scheme)
        next_id = n
        for batch in [[]] + batches:
            for op in batch:
                upd = _churn_update(state, op, next_id, side)
                if upd is None:
                    continue
                next_id += isinstance(upd, Join)
                state.apply(upd)
            e = list(state.energy) if scheme.needs_energy else None
            snap = SimpleNamespace(
                adjacency=list(state.adjacency), ids=tuple(state.ids)
            )
            got = pipe.compute(snap, energy=e)
            want = compute_cds(list(state.adjacency), scheme, energy=e)
            assert got.gateway_mask == want.gateway_mask
            assert got.stats == want.stats
