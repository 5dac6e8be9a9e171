"""Kernels in visit order.

Above the dense cutoff the edge-list kernels renumber the nodes in a
breadth-first visit order before they run and map the flags back
afterwards, so that a row's neighbours get nearby ids and the miss-mask
probe reads stay in cache.  ``AdHocNetwork.visit_order`` caches the order
on the identity of the topology pair (a passing ``is_connected`` records
its own search), and the engine searches from the component minima when
its input carries no order.  A renumbering must change no mask, no
``PruneStats`` and no counter but ``rule2.pair_tests``: the witness
filter takes the two lowest members of a miss mask in local bit order,
so how many pairs it leaves depends on the order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import vectorized
from repro.core.cds import compute_cds
from repro.core.priority import PriorityScheme
from repro.core.sparse import CSRBatch, SparseCDSEngine, SparseCDSPipeline
from repro.core.sparse_delta import IncrementalSparseCDSPipeline
from repro.core.vectorized import VectorizedCDSPipeline
from repro.errors import ConfigurationError
from repro.graphs import adhoc
from repro.graphs.adhoc import _GRID_DELTA_CUTOFF, AdHocNetwork
from repro.graphs.generators import random_connected_network, scaled_side
from repro.graphs.neighborhoods import is_connected
from repro.graphs.unitdisk import (
    bfs_order,
    connected_labels,
    topology_is_connected,
    unit_disk_topology,
)
from repro.mobility.manager import MobilityManager
from repro.mobility.paper_walk import PaperWalk

RADIUS = 25.0
N = 600  # above the edge-list cutoff
assert N > _GRID_DELTA_CUTOFF


def lattice(n: int, seed: int, origin=(0.0, 0.0)) -> np.ndarray:
    """Jittered lattice at spacing 12 (< radius after any jitter or one
    walk step of up to 6): connected whatever the seed."""
    rng = np.random.default_rng(seed)
    cols = int(np.ceil(np.sqrt(n)))
    ij = np.stack(np.divmod(np.arange(n), cols), axis=1).astype(np.float64)
    return ij * 12.0 + rng.uniform(-1.5, 1.5, (n, 2)) + origin


def split_field(seed: int) -> np.ndarray:
    """A 500-host lattice and a 100-host one, 200 apart: two components
    that a few walk steps cannot join."""
    return np.concatenate(
        [lattice(500, seed), lattice(100, seed + 1, origin=(500.0, 0.0))]
    )


def cluster_field(seed: int) -> np.ndarray:
    """A lattice with 150 hosts packed into a disc of radius 8 around
    its middle: rows there have more than 64 neighbours."""
    rng = np.random.default_rng(seed)
    pos = lattice(N, seed)
    angle = rng.uniform(0.0, 2 * np.pi, 150)
    r = 8.0 * np.sqrt(rng.uniform(0.0, 1.0, 150))
    pos[:150] = np.stack([np.cos(angle), np.sin(angle)], axis=1) * r[:, None]
    pos[:150] += pos[150:].mean(axis=0)
    return pos


def scattered(n: int, seed: int, spread: float = 2.5) -> np.ndarray:
    """Uniform hosts on a field ``spread`` times the constant-density
    side: many components and isolated hosts."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, spread * scaled_side(n), (n, 2))


def assert_permutation(order: np.ndarray, n: int) -> None:
    assert order.dtype == np.int64
    np.testing.assert_array_equal(np.sort(order), np.arange(n))


# -- the order ----------------------------------------------------------------


class TestOrder:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_connected_field_from_one_root(self, seed):
        topo = unit_disk_topology(lattice(N, seed), RADIUS)
        order = bfs_order(*topo, [0])
        assert_permutation(order, N)
        assert order[0] == 0

    def test_levels_ascend_and_neighbours_sit_a_level_apart(self):
        indptr, dst = unit_disk_topology(lattice(N, 4), RADIUS)
        order = bfs_order(indptr, dst, [0])
        level = np.full(N, -1)
        level[0] = 0
        for v in order:  # reference BFS levels, one node at a time
            for u in dst[indptr[v] : indptr[v + 1]]:
                if level[u] < 0:
                    level[u] = level[v] + 1
        lv = level[order]
        assert (np.diff(lv) >= 0).all()
        # within a level the ids ascend
        same = np.diff(lv) == 0
        assert (np.diff(order)[same] > 0).all()
        src = np.repeat(np.arange(N), np.diff(indptr))
        assert np.abs(level[src] - level[dst]).max() <= 1

    @pytest.mark.parametrize("seed", [5, 6])
    def test_components_and_isolated_hosts(self, seed):
        pos = scattered(N, seed)
        topo = unit_disk_topology(pos, RADIUS)
        labels = connected_labels(*topo)
        roots = np.flatnonzero(labels == np.arange(N))
        assert len(roots) > 10
        assert (np.diff(topo[0]) == 0).any()  # isolated hosts
        order = bfs_order(*topo, roots)
        assert_permutation(order, N)
        np.testing.assert_array_equal(order[: len(roots)], roots)
        net = AdHocNetwork(pos, RADIUS, side=2.5 * scaled_side(N))
        assert not net.is_connected()
        np.testing.assert_array_equal(net.visit_order(), order)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_networks(self, n):
        pos = np.zeros((n, 2))
        topo = unit_disk_topology(pos, RADIUS)
        assert_permutation(bfs_order(*topo, np.arange(min(n, 1))), n)
        assert topology_is_connected(*topo)
        net = AdHocNetwork(pos, RADIUS)
        assert_permutation(net.visit_order(), n)

    def test_search_from_roots_covers_unreached_rows(self):
        """The engine's own order: rows without edges that no root
        reaches come last, and a batch keeps each element in its block."""
        pos = scattered(300, 7)
        indptr, dst = unit_disk_topology(pos, RADIUS)
        deg = np.diff(indptr)
        order = vectorized._visit_order(deg, dst, np.array([0]), 1, 300)
        assert_permutation(order, 300)
        reached = bfs_order(indptr, dst, [0])
        np.testing.assert_array_equal(order[: len(reached)], reached)
        # three elements of 90 rows, one root each: every element's rows
        # stay in its block, in that element's visit order
        n = 90
        nets = [random_connected_network(n, rng=s) for s in (1, 2, 3)]
        csr = CSRBatch.from_adjacency([list(net.adjacency) for net in nets])
        eS = np.repeat(np.arange(3 * n), np.diff(csr.indptr))
        fdst = eS - eS % n + csr.dst
        order = vectorized._visit_order(
            np.diff(csr.indptr), fdst, np.array([0, n, 2 * n]), 3, n
        )
        assert_permutation(order, 3 * n)
        for b, net in enumerate(nets):
            np.testing.assert_array_equal(
                order[b * n : (b + 1) * n] - b * n,
                bfs_order(*unit_disk_topology(net.positions, RADIUS), [0]),
            )

    @pytest.mark.parametrize("spread", [0.8, 1.0, 1.4, 2.0])
    def test_is_connected_answers_as_before(self, spread):
        for seed in range(4):
            pos = scattered(700, 10 + seed, spread)
            net = AdHocNetwork(pos, RADIUS, side=spread * scaled_side(700))
            want = is_connected(net.adjacency)
            assert topology_is_connected(*net.topology) == want
            assert net.is_connected() == want
            assert want == (not connected_labels(*net.topology).any())


# -- the cache ----------------------------------------------------------------


@pytest.fixture
def searches(monkeypatch):
    """Roots of every breadth-first search the network runs."""
    calls: list[np.ndarray] = []

    def spy(indptr, dst, roots):
        calls.append(np.asarray(roots).copy())
        return bfs_order(indptr, dst, roots)

    monkeypatch.setattr(adhoc, "bfs_order", spy)
    return calls


class _Exile:
    """Moves host 0 out of everyone's range on the first ``bad`` draws,
    then leaves every host where it is."""

    def __init__(self, bad: int):
        self.bad = bad

    def step(self, positions, region, rng):
        if self.bad:
            self.bad -= 1
            positions[0] = (1e4, 1e4)


def _counted(net: AdHocNetwork):
    with obs.capture() as reg:
        order = net.visit_order()
    return order, dict(reg.counters)


class TestOrderCache:
    def test_passing_is_connected_records_its_search(self, searches):
        net = AdHocNetwork(lattice(N, 1), RADIUS, side=300.0)
        assert net.is_connected()
        assert len(searches) == 1
        order, counters = _counted(net)
        assert len(searches) == 1
        assert counters == {"kernels.order_reused": 1}
        assert_permutation(order, N)
        assert not order.flags.writeable
        assert net.visit_order() is order
        np.testing.assert_array_equal(order, bfs_order(*net.topology, [0]))

    def test_failing_is_connected_records_nothing(self, searches):
        net = AdHocNetwork(lattice(N, 2), RADIUS, side=300.0)
        net.positions[0] = (1e4, 1e4)
        net.invalidate()
        assert not net.is_connected()
        order, counters = _counted(net)
        assert counters == {"kernels.order_computed": 1}
        assert_permutation(order, N)
        # seeded with both component minima: host 0 alone, then host 1
        np.testing.assert_array_equal(searches[-1], [0, 1])
        assert order[0] == 0 and order[1] == 1
        assert net.visit_order() is order
        assert len(searches) == 2

    def test_apply_moves_drops_the_order(self, searches):
        net = AdHocNetwork(lattice(N, 3), RADIUS, side=300.0)
        assert net.is_connected()
        before = net.visit_order()
        net.positions[7] += 0.5
        net.apply_moves([7])
        order, counters = _counted(net)
        assert order is not before
        assert counters == {"kernels.order_computed": 1}
        np.testing.assert_array_equal(searches[-1], [0])  # labels all 0
        assert net.is_connected()  # a new search on the same pair
        order2, counters = _counted(net)
        assert order2 is order and counters == {"kernels.order_reused": 1}

    @pytest.mark.parametrize("change", ["invalidate", "move_host"])
    def test_invalidate_and_move_host_drop_the_order(self, change, searches):
        net = AdHocNetwork(lattice(N, 4), RADIUS, side=300.0)
        assert net.is_connected()
        before = net.visit_order()
        if change == "invalidate":
            net.invalidate()
        else:
            net.move_host(3, net.positions[3].copy())
        order, counters = _counted(net)
        assert order is not before
        assert counters == {"kernels.order_computed": 1}
        np.testing.assert_array_equal(order, before)  # same topology

    def test_retry_rollback_then_pass_reuses_the_search(self, searches):
        net = AdHocNetwork(lattice(N, 5), RADIUS, side=300.0)
        assert net.is_connected()
        mgr = MobilityManager(net, _Exile(bad=1), max_retries=3, rng=0)
        mgr.step()
        assert mgr.retries_used == 1 and mgr.frozen_intervals == 0
        calls = len(searches)
        order, counters = _counted(net)
        assert counters == {"kernels.order_reused": 1}
        assert len(searches) == calls
        assert_permutation(order, N)

    def test_frozen_interval_drops_the_order(self, searches):
        pos = lattice(N, 6)
        net = AdHocNetwork(pos, RADIUS, side=300.0)
        assert net.is_connected()
        before = net.visit_order()
        mgr = MobilityManager(net, _Exile(bad=5), max_retries=2, rng=0)
        assert mgr.step() is False and mgr.frozen_intervals == 1
        # the rollback replaced the pair and no check passed on it since
        order, counters = _counted(net)
        assert order is not before
        assert counters == {"kernels.order_computed": 1}
        np.testing.assert_array_equal(order, before)

    def test_connected_generator_needs_no_second_search(self, searches):
        net = random_connected_network(N, side=200.0, radius=RADIUS, rng=3)
        calls = len(searches)
        _, counters = _counted(net)
        assert counters == {"kernels.order_reused": 1}
        assert len(searches) == calls


# -- results with and without the renumbering ---------------------------------

PIPELINES = {
    "vectorized": VectorizedCDSPipeline,
    "sparse": SparseCDSPipeline,
    "incremental": IncrementalSparseCDSPipeline,
}

#: a scheme outside the registry: ranks come from its tuple keys, one
#: element at a time (``BatchCDSEngine._ranks``'s generic path)
DEGREE_DOWN = PriorityScheme(
    "degree-down", key_fn=lambda a: (-a.degree, a.node)
)
SCHEMES = ("nr", "id", "nd", "el1", "el2", DEGREE_DOWN)


def _identity(monkeypatch):
    """Every order the identity: the kernels run on the input ids."""
    monkeypatch.setattr(
        AdHocNetwork, "visit_order", lambda self: np.arange(self.n)
    )
    monkeypatch.setattr(
        vectorized, "_visit_order",
        lambda deg, fdst, roots, B, n: np.arange(B * n),
    )


def _trace(kind, scheme, pos, *, fixed_point, seed, steps=3):
    """Masks, stats and counters of ``steps`` intervals of one pipeline
    on a walking network (retry on a connected field, accept otherwise),
    on draining energies.  The topology arrays are read-only while the
    pipeline computes: no kernel may write to them."""
    rng = np.random.default_rng(seed)
    net = AdHocNetwork(pos, RADIUS, side=700.0)
    policy = "retry" if net.is_connected() else "accept"
    mgr = MobilityManager(
        net, PaperWalk(stability=0.6), on_disconnect=policy, rng=rng
    )
    pipe = PIPELINES[kind](scheme, fixed_point=fixed_point)
    if kind != "vectorized":
        pipe.engine.dense_cutoff = 100
    energy = rng.uniform(1.0, 30.0, N)
    out = []
    with obs.capture() as reg:
        for _ in range(steps):
            for a in net.topology:
                a.flags.writeable = False
            res = pipe.compute(net, energy=energy)
            out.append((res.gateway_mask, res.stats))
            energy = np.maximum(energy - rng.uniform(0.0, 3.0, N), 0.5)
            mgr.step()
    return out, dict(reg.counters)


def _same_counts(got: dict, want: dict) -> None:
    """Every counter equal but the order's own and ``rule2.pair_tests``."""
    skip = ("kernels.", "rule2.pair_tests")

    def kept(c):
        return {k: v for k, v in c.items() if not k.startswith(skip)}

    assert kept(got) == kept(want)
    assert got["rule2.pair_tests"] <= got["rule2.coverage_tests"]


FIELDS = {
    "connected": lambda seed: lattice(N, seed),
    "split": split_field,
    "cluster": cluster_field,
}


@pytest.mark.parametrize("fixed_point", [False, True])
@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize(
    "scheme", SCHEMES, ids=[getattr(s, "name", s) for s in SCHEMES]
)
@pytest.mark.parametrize("kind", sorted(PIPELINES))
def test_visit_order_changes_no_result(kind, scheme, field, fixed_point,
                                       monkeypatch):
    seed = 17
    pos = FIELDS[field](seed)
    got, counters = _trace(kind, scheme, pos, fixed_point=fixed_point,
                           seed=seed)
    with monkeypatch.context() as m:
        _identity(m)
        want, plain = _trace(kind, scheme, pos, fixed_point=fixed_point,
                             seed=seed)
    assert got == want
    name = getattr(scheme, "name", scheme)
    if name == "nr":
        assert "rule2.coverage_tests" not in counters
        assert {k: v for k, v in counters.items() if "order" not in k} == {
            k: v for k, v in plain.items() if "order" not in k
        }
    else:
        _same_counts(counters, plain)
    if field != "split":
        # a connected field: every order came from mobility's search
        assert "kernels.order_computed" not in counters
        assert counters["kernels.order_reused"] >= 1


def test_wide_rows_match_the_scalar_oracle():
    net = AdHocNetwork(cluster_field(3), RADIUS, side=700.0)
    assert np.diff(net.topology[0]).max() > 64
    assert net.is_connected()
    energy = np.random.default_rng(3).uniform(1.0, 30.0, N)
    for scheme in ("id", "el2"):
        want = compute_cds(net.adjacency, scheme, energy=energy)
        for cls in PIPELINES.values():
            pipe = cls(scheme)
            if cls is not VectorizedCDSPipeline:
                pipe.engine.dense_cutoff = 100
            got = pipe.compute(net, energy=energy)
            assert (got.gateway_mask, got.stats) == (
                want.gateway_mask, want.stats
            )


@pytest.mark.parametrize("fixed_point", [False, True])
@pytest.mark.parametrize("scheme", ["id", "nd", "el2"])
def test_batched_csr(scheme, fixed_point, monkeypatch):
    nets = [random_connected_network(90, rng=s) for s in (1, 2, 3)]
    adjs = [list(net.adjacency) for net in nets]
    csr = CSRBatch.from_adjacency(adjs)
    energy = np.random.default_rng(4).uniform(1.0, 30.0, (3, 90))
    engine = SparseCDSEngine(scheme, fixed_point=fixed_point, dense_cutoff=2)
    with obs.capture() as reg:
        flags, stats = engine.run(csr, energy)
    assert reg.counters["kernels.order_computed"] == 1
    with monkeypatch.context() as m:
        _identity(m)
        with obs.capture() as plain:
            f0, s0 = engine.run(csr, energy)
    np.testing.assert_array_equal(flags, f0)
    assert stats == s0
    _same_counts(reg.counters, plain.counters)
    for b in range(3):
        want = compute_cds(
            adjs[b], scheme, energy=energy[b], fixed_point=fixed_point
        )
        assert flags[b].tolist() == [
            bool(want.gateway_mask >> v & 1) for v in range(90)
        ]
        assert stats[b] == want.stats
    # an order the CSR carries is used as given
    order = np.concatenate([b * 90 + nets[b].visit_order() for b in range(3)])
    labelled = CSRBatch(csr.indptr, csr.dst, csr.B, csr.n, order=order)
    with obs.capture() as given:
        f1, s1 = engine.run(labelled, energy)
    np.testing.assert_array_equal(flags, f1)
    assert s1 == stats
    assert "kernels.order_computed" not in given.counters


def test_order_length_is_checked():
    net = random_connected_network(40, rng=1)
    csr = CSRBatch.from_adjacency([list(net.adjacency)])
    with pytest.raises(ConfigurationError):
        CSRBatch(csr.indptr, csr.dst, 1, 40, order=np.arange(39))
