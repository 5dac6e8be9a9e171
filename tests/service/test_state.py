"""TenantState: replay purity, adjacency maintenance, digests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import ConfigurationError, TopologyError
from repro.graphs import bitset
from repro.graphs.unitdisk import unit_disk_adjacency
from repro.service.state import TenantState
from repro.service.updates import Drain, Join, Leave, Move, UpdateStream


def _fresh(n: int = 6, *, radius: float = 30.0) -> TenantState:
    st = TenantState(radius=radius, side=100.0)
    rng = np.random.default_rng(5)
    st.seed_population(rng.uniform(0, 100, size=(n, 2)))
    return st


class TestApply:
    def test_join_extends_population(self):
        st = _fresh(4)
        changed = st.apply(Join(4, 10.0, 10.0, energy=55.0))
        assert st.n == 5
        assert st.index_of(4) == 4
        assert st.energy[4] == 55.0
        assert changed == (1 << 5) - 1  # membership change = all rows
        assert st.seq == 1

    def test_join_of_member_raises(self):
        st = _fresh(4)
        with pytest.raises(TopologyError, match="existing node"):
            st.apply(Join(2, 0.0, 0.0))

    def test_leave_renumbers_dense_indices(self):
        st = _fresh(5)
        st.apply(Leave(1))
        assert st.n == 4
        assert st.ids == [0, 2, 3, 4]
        # dense indices shift down; external ids keep resolving
        assert st.index_of(2) == 1
        with pytest.raises(TopologyError, match="not a member"):
            st.index_of(1)

    def test_move_reports_flipped_rows(self):
        st = TenantState(radius=10.0, side=100.0)
        st.seed_population(np.array([[0.0, 0.0], [30.0, 0.0], [50.0, 0.0]]))
        # bring node 2 next to node 0 only: rows 0 and 2 gain an edge,
        # row 1 (30 away from both) is untouched
        changed = st.apply(Move(2, 8.0, 0.0))
        assert bitset.popcount(st.adjacency[2] & (1 << 0)) == 1
        assert changed == (1 << 0) | (1 << 2)

    def test_noop_move_reports_nothing(self):
        st = TenantState(radius=10.0, side=100.0)
        st.seed_population(np.array([[0.0, 0.0], [50.0, 0.0]]))
        assert st.apply(Move(0, 0.5, 0.0)) == 0  # no neighborhood change

    def test_drain_changes_energy_not_structure(self):
        st = _fresh(4)
        before = list(st.adjacency)
        assert st.apply(Drain(0, 2.5)) == 0
        assert st.energy[0] == 97.5
        assert list(st.adjacency) == before

    def test_moving_a_ghost_raises(self):
        st = _fresh(3)
        with pytest.raises(TopologyError, match="not a member"):
            st.apply(Move(99, 1.0, 1.0))


class TestReplayPurity:
    def test_same_prefix_same_digest(self):
        updates = UpdateStream(seed=3, n_initial=8).take(60)
        a, b = _fresh(8), _fresh(8)
        for upd in updates:
            a.apply(upd)
            b.apply(upd)
        assert a.digest() == b.digest()
        assert a.seq == b.seq == 60

    def test_digest_distinguishes_prefixes(self):
        updates = UpdateStream(seed=3, n_initial=8).take(10)
        a, b = _fresh(8), _fresh(8)
        for upd in updates:
            a.apply(upd)
        for upd in updates[:-1]:
            b.apply(upd)
        assert a.digest() != b.digest()

    def test_snapshot_round_trip_is_bit_identical(self):
        st = _fresh(8)
        for upd in UpdateStream(seed=9, n_initial=8).take(30):
            st.apply(upd)
        back = TenantState.from_dict(st.to_dict())
        assert back.digest() == st.digest()
        assert back.adjacency == st.adjacency
        # and the restored state keeps evolving identically
        more = UpdateStream(seed=9, n_initial=8)
        more.skip(30)
        for upd in more.take(10):
            st.apply(upd)
            back.apply(upd)
        assert back.digest() == st.digest()


class TestIncrementalAdjacency:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(3, 40),
        steps=st.integers(1, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_patched_adjacency_equals_full_rebuild(self, seed, n, steps):
        updates = UpdateStream(
            seed=seed, n_initial=n, p_move=0.4, p_drain=0.2, p_churn=0.4
        ).take(steps)
        assume(any(isinstance(u, Join) for u in updates))
        assume(any(isinstance(u, Leave) for u in updates))
        state = TenantState(radius=30.0, side=100.0)
        rng = np.random.default_rng(seed)
        state.seed_population(rng.uniform(0, 100, size=(n, 2)))
        for upd in updates:
            state.apply(upd)
            assert state.adjacency == unit_disk_adjacency(
                state.positions, state.radius
            )
        back = TenantState.from_dict(state.to_dict())
        assert back.digest() == state.digest()
        assert back.adjacency == state.adjacency


class TestIndexDiscipline:
    """The delta pipeline splices joins and leaves by external id; that
    needs survivors to keep their relative order and joins to append."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 40),
        steps=st.integers(1, 80),
    )
    @settings(max_examples=60, deadline=None)
    def test_survivors_keep_order_and_joins_append(self, seed, n, steps):
        updates = UpdateStream(
            seed=seed, n_initial=n, p_move=0.2, p_drain=0.1, p_churn=0.7
        ).take(steps)
        state = TenantState(radius=30.0, side=100.0)
        state.seed_population(
            np.random.default_rng(seed).uniform(0, 100, size=(n, 2))
        )
        start = list(state.ids)
        joined = []
        for upd in updates:
            before = list(state.ids)
            state.apply(upd)
            if isinstance(upd, Join):
                joined.append(upd.node)
                assert state.ids == before + [upd.node]
            elif isinstance(upd, Leave):
                assert state.ids == [v for v in before if v != upd.node]
            else:
                assert state.ids == before
            assert [state.index_of(v) for v in state.ids] == list(
                range(state.n)
            )
        # over the whole sequence: surviving seeds first, in seed order,
        # then surviving joins in join order
        live = set(state.ids)
        assert state.ids == [v for v in start + joined if v in live]


class TestValidation:
    def test_bad_radius_rejected(self):
        with pytest.raises(ConfigurationError, match="radius"):
            TenantState(radius=0.0)

    def test_double_seed_rejected(self):
        st = _fresh(3)
        with pytest.raises(ConfigurationError, match="already seeded"):
            st.seed_population(np.zeros((2, 2)))
