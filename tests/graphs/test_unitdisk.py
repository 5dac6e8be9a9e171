"""Unit-disk graph construction tests: dense vs grid strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.graphs import bitset
from repro.graphs.unitdisk import (
    unit_disk_adjacency,
    unit_disk_adjacency_dense,
    unit_disk_adjacency_grid,
    unit_disk_edges,
)


class TestSmallCases:
    def test_two_points_within_radius(self):
        adj = unit_disk_adjacency(np.array([[0.0, 0.0], [3.0, 4.0]]), 5.0)
        assert adj == [0b10, 0b01]  # distance exactly 5: inclusive edge

    def test_two_points_beyond_radius(self):
        adj = unit_disk_adjacency(np.array([[0.0, 0.0], [3.0, 4.0]]), 4.999)
        assert adj == [0, 0]

    def test_no_self_loops(self):
        adj = unit_disk_adjacency(np.zeros((3, 2)), 1.0)
        for v, m in enumerate(adj):
            assert not m >> v & 1

    def test_coincident_points_are_adjacent(self):
        adj = unit_disk_adjacency(np.zeros((2, 2)), 0.0)
        assert adj == [0b10, 0b01]

    def test_empty_input(self):
        assert unit_disk_adjacency(np.zeros((0, 2)), 1.0) == []

    def test_zero_radius_grid_isolates_distinct_points(self):
        pos = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert unit_disk_adjacency_grid(pos, 0.0) == [0, 0]


class TestValidation:
    def test_bad_shape_rejected(self):
        with pytest.raises(TopologyError, match=r"\(n, 2\)"):
            unit_disk_adjacency(np.zeros((3, 3)), 1.0)

    def test_nan_rejected(self):
        pos = np.array([[0.0, np.nan]])
        with pytest.raises(TopologyError, match="NaN"):
            unit_disk_adjacency(pos, 1.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(TopologyError, match="non-negative"):
            unit_disk_adjacency(np.zeros((2, 2)), -1.0)


class TestStrategyEquivalence:
    @pytest.mark.parametrize("n,radius", [(10, 25.0), (60, 10.0), (120, 30.0)])
    def test_dense_equals_grid(self, rng, n, radius):
        pos = rng.random((n, 2)) * 100.0
        assert unit_disk_adjacency_dense(pos, radius) == unit_disk_adjacency_grid(
            pos, radius
        )

    def test_dispatch_uses_grid_above_cutoff(self, rng):
        pos = rng.random((600, 2)) * 100.0
        assert unit_disk_adjacency(pos, 15.0) == unit_disk_adjacency_grid(
            pos, 15.0
        )

    def test_matches_networkx_reference(self, rng):
        nx = pytest.importorskip("networkx")
        pos = rng.random((40, 2)) * 100.0
        adj = unit_disk_adjacency(pos, 25.0)
        ours = {frozenset(e) for e in unit_disk_edges(pos, 25.0)}
        g = nx.Graph()
        g.add_nodes_from(range(40))
        for i in range(40):
            for j in range(i + 1, 40):
                if np.hypot(*(pos[i] - pos[j])) <= 25.0:
                    g.add_edge(i, j)
        theirs = {frozenset(e) for e in g.edges()}
        assert ours == theirs
        # and adjacency masks agree with the edge list
        rebuilt = [0] * 40
        for u, v in unit_disk_edges(pos, 25.0):
            rebuilt[u] |= 1 << v
            rebuilt[v] |= 1 << u
        assert rebuilt == adj


class TestEdges:
    def test_edges_are_ordered_pairs(self, rng):
        pos = rng.random((30, 2)) * 50.0
        for u, v in unit_disk_edges(pos, 20.0):
            assert u < v

    def test_edge_count_matches_popcount(self, rng):
        pos = rng.random((25, 2)) * 50.0
        adj = unit_disk_adjacency(pos, 20.0)
        assert (
            len(unit_disk_edges(pos, 20.0))
            == sum(bitset.popcount(m) for m in adj) // 2
        )


class TestExactRadiusTies:
    """Integer coordinates put many pairs at distance exactly ``r``
    (3-4-5 triangles, axis steps of 5); ``d² ≤ r²`` must hold for them
    in every builder: the dense rows, the grid rows and the mover rows
    ``AdHocNetwork.apply_moves`` patches in below the edge-list cutoff."""

    RADIUS = 5.0

    @staticmethod
    def oracle(pos: np.ndarray, radius: float) -> list[int]:
        ip = pos.astype(np.int64)
        d2 = ((ip[:, None, :] - ip[None, :, :]) ** 2).sum(axis=2)
        within = d2 <= int(radius) ** 2
        np.fill_diagonal(within, False)
        return [bitset.mask_from_ids(np.flatnonzero(r).tolist()) for r in within]

    def lattice(self) -> np.ndarray:
        g = np.arange(0, 16, 2, dtype=np.float64)
        g = np.concatenate([g, g + 3.0])  # 256 integer points
        xy = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        return np.unique(xy, axis=0)

    def test_builders_keep_pairs_at_exactly_r(self):
        pos = self.lattice()
        want = self.oracle(pos, self.RADIUS)
        # the lattice has pairs at d = 5 exactly, and some just beyond
        ties = sum(
            1
            for i in range(len(pos))
            for j in range(i)
            if ((pos[i] - pos[j]) ** 2).sum() == 25.0
        )
        assert ties > 0
        assert unit_disk_adjacency_dense(pos, self.RADIUS) == want
        assert unit_disk_adjacency_grid(pos, self.RADIUS) == want

    def test_mover_rows_keep_pairs_at_exactly_r(self):
        from repro.graphs.adhoc import AdHocNetwork

        pos = self.lattice()
        net = AdHocNetwork(pos, self.RADIUS, side=30.0)
        assert net.n <= 512  # the bitmask-row patch
        net.adjacency
        moved = np.array([0, 7, 40])
        net.positions[moved] += (3.0, 4.0)
        net.apply_moves(moved)
        assert net.adjacency == self.oracle(net.positions, self.RADIUS)

    @pytest.mark.parametrize("seed", range(5))
    def test_per_axis_rows_equal_the_broadcast_formula(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.random((150, 2)) * 60.0
        diff = pos[:, None, :] - pos[None, :, :]
        within = np.einsum("ijk,ijk->ij", diff, diff) <= 8.0 * 8.0
        np.fill_diagonal(within, False)
        want = [bitset.mask_from_ids(np.flatnonzero(r).tolist()) for r in within]
        assert unit_disk_adjacency_dense(pos, 8.0) == want
