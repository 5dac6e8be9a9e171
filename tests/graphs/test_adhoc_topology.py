"""Oracle tests for ``AdHocNetwork``'s edge-list topology.

Above ``_GRID_DELTA_CUTOFF`` hosts the network keeps the sorted directed
edge list ``(indptr, dst)``: ``apply_moves`` patches it, ``is_connected``
walks it, and ``adjacency`` derives the int rows from it on demand.  Each
state is checked against an oracle built with the dense strategy's
arithmetic in row blocks, independent of the grid edge lists:

* the patched arrays equal a fresh build, array for array;
* the changed rows equal a diff of the oracle's int rows (and so does
  ``topology_row_diff`` of the arrays before and after);
* ``is_connected`` equals the int-row BFS on connected and split fields;
* ``adjacency`` equals ``unit_disk_adjacency``.

The radius-0 cases pin that every construction and both patches join
exactly the co-located hosts, like the dense strategy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.geometry.space import Region2D
from repro.graphs.adhoc import _GRID_DELTA_CUTOFF, AdHocNetwork
from repro.graphs.neighborhoods import is_connected
from repro.graphs.unitdisk import (
    row_ints,
    topology_row_diff,
    unit_disk_adjacency,
    unit_disk_adjacency_dense,
    unit_disk_adjacency_grid,
    unit_disk_topology,
)
from repro.mobility.manager import MobilityManager
from repro.mobility.paper_walk import PaperWalk

RADIUS = 25.0
SIZES = (_GRID_DELTA_CUTOFF + 1, 4000)


def lattice(n: int, seed: int) -> np.ndarray:
    """Jittered lattice at spacing 12 (< radius even after jitter): a
    connected field of average degree ~12 whatever the seed."""
    rng = np.random.default_rng(seed)
    cols = int(np.ceil(np.sqrt(n)))
    ij = np.stack(np.divmod(np.arange(n), cols), axis=1).astype(np.float64)
    return ij * 12.0 + rng.uniform(-1.5, 1.5, (n, 2))


def oracle(pos: np.ndarray, radius: float = RADIUS):
    """``((indptr, dst), int rows)`` from the dense strategy's distance
    arithmetic, 256 rows at a time."""
    n = len(pos)
    dst, deg, rows = [], [], []
    for lo in range(0, n, 256):
        diff = pos[lo : lo + 256, None, :] - pos[None, :, :]
        within = np.einsum("ijk,ijk->ij", diff, diff) <= radius * radius
        k = len(within)
        within[np.arange(k), np.arange(lo, lo + k)] = False
        rows += row_ints(np.packbits(within, axis=1, bitorder="little"))
        dst.append(np.nonzero(within)[1])
        deg.append(within.sum(axis=1))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(deg))])
    return (indptr, np.concatenate(dst)), rows


def diff_mask(before: list[int], after: list[int]) -> int:
    return sum(1 << v for v, (a, b) in enumerate(zip(before, after)) if a != b)


def assert_topology(net: AdHocNetwork) -> list[int]:
    """The network's arrays, connectivity and rows against the oracle."""
    (indptr, dst), rows = oracle(net.positions, net.radius)
    got = net.topology
    np.testing.assert_array_equal(got[0], indptr)
    np.testing.assert_array_equal(got[1], dst)
    assert net.is_connected() == is_connected(rows)
    return rows


def patch_and_check(net: AdHocNetwork, moved) -> int:
    """Apply the moves already written to ``net.positions``; assert the
    patched state and the changed mask against the oracle."""
    before_topo = net.topology
    _, before = oracle(net.positions_before, net.radius)
    changed = net.apply_moves(moved)
    rows = assert_topology(net)
    assert changed == diff_mask(before, rows)
    got = topology_row_diff(before_topo, net.topology)
    assert changed == sum(1 << int(v) for v in got)
    return changed


class Net(AdHocNetwork):
    """An ``AdHocNetwork`` that remembers the positions of its last state,
    so a test can diff the oracle's rows across a move."""

    def apply_moves(self, moved) -> int:
        changed = super().apply_moves(moved)
        self.positions_before = self.positions.copy()
        return changed


def fresh(n: int, seed: int = 0, pos: np.ndarray | None = None) -> Net:
    pos = lattice(n, seed) if pos is None else pos
    net = Net(pos, RADIUS, side=12.0 * np.sqrt(n))
    net.topology  # build the edge list so apply_moves patches it
    net.positions_before = net.positions.copy()
    return net


@pytest.mark.parametrize("n", SIZES)
class TestPatchedTopology:
    def test_fresh_build_matches_oracle(self, n):
        net = fresh(n, seed=1)
        rows = assert_topology(net)
        assert net.is_connected()
        assert not net.has_adjacency_cache
        assert net.adjacency == rows == unit_disk_adjacency(net.positions, RADIUS)

    def test_stability_walk_steps(self, n):
        net = fresh(n, seed=2)
        walk = PaperWalk(stability=0.9)
        region = Region2D(side=float(net.positions.max()) + 1.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            before = net.positions.copy()
            walk.step(net.positions, region, rng)
            moved = np.flatnonzero(np.any(net.positions != before, axis=1))
            assert 0 < len(moved) < n
            patch_and_check(net, moved)
        assert net.adjacency == unit_disk_adjacency(net.positions, RADIUS)

    def test_word_boundary_movers(self, n):
        net = fresh(n, seed=3)
        ids = np.array([63, 64, 127, 128])
        far = n - 1 - ids
        net.positions[ids], net.positions[far] = (
            net.positions[far].copy(), net.positions[ids].copy()
        )
        changed = patch_and_check(net, np.concatenate([ids, far]))
        for v in ids.tolist():
            assert changed >> v & 1

    def test_mover_loses_every_neighbour(self, n):
        net = fresh(n, seed=4)
        v = n // 2
        indptr, dst = net.topology
        old = dst[indptr[v] : indptr[v + 1]].tolist()
        assert old
        net.positions[v] = (-1000.0, -1000.0)
        changed = patch_and_check(net, [v])
        indptr, dst = net.topology
        assert indptr[v] == indptr[v + 1]
        assert changed == sum(1 << u for u in old + [v])
        assert not net.is_connected()

    def test_split_field_is_disconnected(self, n):
        pos = lattice(n, seed=5)
        pos[pos[:, 0] > pos[:, 0].mean(), 0] += 100.0  # a 100-wide gap
        net = fresh(n, pos=pos)
        assert_topology(net)
        assert not net.is_connected()
        # close the gap again: one patch reconnects the halves
        moved = np.flatnonzero(pos[:, 0] > pos[:, 0].mean())
        net.positions[moved, 0] -= 100.0
        patch_and_check(net, moved)
        assert net.is_connected()

    def test_retry_rollback_restores_arrays(self, n):
        net = fresh(n, seed=6)
        start = net.positions.copy()
        indptr, dst = net.topology

        class Stranding:
            """Paper walk, then host 0 thrown out of range: every
            attempt disconnects, so each one is rolled back."""

            walk = PaperWalk(stability=0.9)

            def step(self, positions, region, rng):
                self.walk.step(positions, region, rng)
                positions[0] = (-1000.0, -1000.0)

        mm = MobilityManager(
            net, Stranding(), Region2D(side=float(start.max()) + 1.0),
            on_disconnect="retry", max_retries=2,
            rng=np.random.default_rng(7),
        )
        assert mm.step() is False
        assert mm.frozen_intervals == 1
        np.testing.assert_array_equal(net.positions, start)
        np.testing.assert_array_equal(net.topology[0], indptr)
        np.testing.assert_array_equal(net.topology[1], dst)
        assert topology_row_diff((indptr, dst), net.topology).size == 0
        assert not net.has_adjacency_cache
        # a free walk after the rollback still patches exactly
        mm.model = PaperWalk(stability=0.9)
        assert mm.step()
        assert_topology(net)


class TestIntRowsOnDemand:
    def test_rows_built_once_per_change(self):
        net = fresh(_GRID_DELTA_CUTOFF + 1, seed=8)
        with obs.capture() as reg:
            rows = net.adjacency
            assert net.adjacency is rows
            assert net.apply_moves([1, 2]) == 0  # moves nothing
            assert net.adjacency is rows
            net.positions[5] = (-1000.0, -1000.0)
            assert net.apply_moves([5])
            assert not net.has_adjacency_cache
            assert net.adjacency == unit_disk_adjacency(net.positions, RADIUS)
        assert reg.counters["graphs.int_rows_built"] == 2

    def test_dense_sizes_count_nothing(self):
        net = fresh(_GRID_DELTA_CUTOFF, seed=9)
        with obs.capture() as reg:
            net.adjacency
        assert "graphs.int_rows_built" not in reg.counters

    def test_cold_network_moves_build_nothing(self):
        net = AdHocNetwork(lattice(600, 10), RADIUS)
        net.positions[3] += 5.0
        assert net.apply_moves([3]) == (1 << 600) - 1
        assert net.apply_moves([]) == 0
        assert not net.has_adjacency_cache
        assert_topology(net)


class TestZeroRadius:
    def test_two_hosts_join_when_co_located(self):
        net = AdHocNetwork(np.array([[0.0, 0.0], [1.0, 1.0]]), 0.0)
        assert net.adjacency == [0, 0]
        net.positions[1] = (0.0, 0.0)
        assert net.apply_moves([1]) == 0b11
        assert net.adjacency == [2, 1]
        assert net.adjacency == unit_disk_adjacency_dense(net.positions, 0.0)

    def test_constructions_agree_at_n600(self):
        rng = np.random.default_rng(11)
        pos = rng.uniform(0.0, 100.0, (600, 2))
        pos[:300] = pos[0]  # 300 hosts on one spot
        pos[400:410] = pos[500]  # and 11 on another
        dense = unit_disk_adjacency_dense(pos, 0.0)
        assert bin(dense[0]).count("1") == 299
        assert unit_disk_adjacency_grid(pos, 0.0) == dense
        assert unit_disk_adjacency(pos, 0.0) == dense
        (indptr, dst), rows = oracle(pos, 0.0)
        assert rows == dense
        topo = unit_disk_topology(pos, 0.0)
        np.testing.assert_array_equal(topo[0], indptr)
        np.testing.assert_array_equal(topo[1], dst)

    def test_patch_at_n600(self):
        rng = np.random.default_rng(12)
        pos = rng.uniform(0.0, 100.0, (600, 2))
        pos[:5] = pos[10]
        net = Net(pos, 0.0)
        net.topology
        net.positions_before = net.positions.copy()
        net.positions[[20, 21]] = net.positions[10]  # join the cluster
        net.positions[1] = (50.5, 50.5)  # leave it
        changed = patch_and_check(net, [1, 20, 21])
        assert changed == sum(1 << v for v in (0, 1, 2, 3, 4, 10, 20, 21))
        assert net.adjacency == unit_disk_adjacency_dense(net.positions, 0.0)
