"""Oracle tests for the grid branch of ``AdHocNetwork.apply_moves``.

Above ``_GRID_DELTA_CUTOFF`` hosts the mover rows come from one grid
edge-list pass and every affected unmoved row takes its flips in one XOR.
After each patch the rows must equal a full rebuild and the returned
changed mask must name exactly the rows that differ from before.  The
hypothesis property in ``tests/property/test_incremental_properties.py``
draws n ≤ 30, so it only reaches the dense branch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.space import Region2D
from repro.graphs.adhoc import (
    _DELTA_REBUILD_FRACTION,
    _GRID_DELTA_CUTOFF,
    AdHocNetwork,
)
from repro.graphs.neighborhoods import is_connected
from repro.graphs.unitdisk import unit_disk_adjacency, unit_disk_adjacency_dense
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


def rebuild(pos: np.ndarray) -> list[int]:
    if len(pos) <= 1024:  # independent of the shared grid edge lists
        return unit_disk_adjacency_dense(pos, RADIUS)
    return unit_disk_adjacency(pos, RADIUS)


def diff_mask(before: list[int], after: list[int]) -> int:
    return sum(1 << v for v, (a, b) in enumerate(zip(before, after)) if a != b)


def patch_and_check(net: AdHocNetwork, moved) -> int:
    """Apply the moves already written to ``net.positions``; assert the
    rows and the changed mask against a full rebuild."""
    before = list(net.adjacency)
    changed = net.apply_moves(moved)
    want = rebuild(net.positions)
    assert net.adjacency == want
    assert changed == diff_mask(before, want)
    return changed


def fresh(n: int, seed: int = 0) -> AdHocNetwork:
    net = AdHocNetwork(lattice(n, seed), RADIUS, side=12.0 * np.sqrt(n))
    net.adjacency  # prime the cache so apply_moves patches in place
    return net


@pytest.mark.parametrize("n", SIZES)
class TestGridPatch:
    def test_takes_the_grid_branch(self, n):
        assert n > _GRID_DELTA_CUTOFF

    @pytest.mark.parametrize("frac", [0.002, 0.05, 0.2, _DELTA_REBUILD_FRACTION])
    def test_move_fractions_below_rebuild(self, n, frac):
        net = fresh(n, seed=1)
        rng = np.random.default_rng(2)
        k = max(1, int(n * frac) - 1)  # stays on the patch path
        assert k <= max(8, int(n * _DELTA_REBUILD_FRACTION))
        for _ in range(3):
            ids = rng.choice(n, k, replace=False)
            net.positions[ids] += rng.normal(0.0, 12.0, (k, 2))
            patch_and_check(net, ids)

    def test_word_boundary_movers(self, n):
        net = fresh(n, seed=3)
        ids = np.array([63, 64, 127, 128])
        # swap each boundary host with a far one: every edge on both sides
        # of the word seam changes
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
        old_neighbours = net.neighbors(v)
        assert old_neighbours
        net.positions[v] = (-1000.0, -1000.0)
        changed = patch_and_check(net, [v])
        assert net.adjacency[v] == 0
        assert changed == sum(1 << u for u in old_neighbours + [v])

    def test_co_located_hosts(self, n):
        net = fresh(n, seed=5)
        # two movers onto one spot, and a third onto an unmoved host
        net.positions[[10, 20]] = net.positions[300]
        net.positions[30] = net.positions[301]
        patch_and_check(net, [10, 20, 30])
        assert net.has_edge(10, 20) and net.has_edge(10, 300)
        assert net.has_edge(30, 301)

    def test_boolean_mask_and_duplicate_ids(self, n):
        net = fresh(n, seed=6)
        ids = [5, 5, 77, 200]
        net.positions[[5, 77, 200]] += 9.0
        patch_and_check(net, ids)
        mask = np.zeros(n, dtype=bool)
        mask[[5, 77]] = True
        net.positions[mask] -= 4.0
        patch_and_check(net, mask)

    def test_rollback_restores_rows(self, n):
        net = fresh(n, seed=10)
        rows, before = list(net.adjacency), net.positions.copy()
        rng = np.random.default_rng(11)
        ids = rng.choice(n, n // 10, replace=False)
        net.positions[ids] += rng.normal(0.0, 12.0, (len(ids), 2))
        forward = patch_and_check(net, ids)
        net.positions[:] = before
        assert patch_and_check(net, ids) == forward
        assert net.adjacency == rows

    def test_no_op_moves_report_nothing(self, n):
        net = fresh(n, seed=7)
        assert patch_and_check(net, [1, 2, 3]) == 0


class _Stranding:
    """Paper walk plus one host teleported out of range on the first
    ``strand`` calls, so the retry policy must roll those attempts back."""

    def __init__(self, stability: float, strand: int):
        self.walk = PaperWalk(stability=stability)
        self.strand = strand

    def step(self, positions, region, rng):
        self.walk.step(positions, region, rng)
        if self.strand:
            self.strand -= 1
            positions[0] = (-1000.0, -1000.0)


@pytest.mark.parametrize("n", SIZES)
class TestRetryRollback:
    def _manager(self, n, strand, max_retries):
        net = fresh(n, seed=8)
        assert is_connected(net.adjacency)
        side = float(net.positions.max()) + 1.0
        return MobilityManager(
            net,
            _Stranding(0.9, strand),
            Region2D(side=side),
            on_disconnect="retry",
            max_retries=max_retries,
            rng=np.random.default_rng(9),
        )

    def test_rollback_then_redraw(self, n):
        mm = self._manager(n, strand=1, max_retries=3)
        mm.step()
        assert mm.retries_used == 1
        assert mm.network.adjacency == rebuild(mm.network.positions)

    def test_every_retry_rolled_back(self, n):
        mm = self._manager(n, strand=2, max_retries=2)
        before = mm.network.positions.copy()
        rows = list(mm.network.adjacency)
        assert mm.step() is False
        assert mm.frozen_intervals == 1
        np.testing.assert_array_equal(mm.network.positions, before)
        assert mm.network.adjacency == rows
