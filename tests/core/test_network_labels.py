"""Component labels as a fact of the topology.

``AdHocNetwork.component_labels`` caches the labels on the identity of
the current topology pair: a passing ``is_connected`` records "one
component" there (labels all 0), any other case labels the pair once, and
every change of the pair drops the cache.  The sparse pipelines hand
those labels to the engine whenever they compute on the network's whole
topology; masks, ``PruneStats`` and the ``sdelta.*`` counters must equal
the runs in which the engine labels the CSR itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.cds import compute_cds
from repro.core.sparse import CSRBatch, SparseCDSEngine, SparseCDSPipeline
from repro.core.sparse_delta import IncrementalSparseCDSPipeline
from repro.errors import ConfigurationError
from repro.graphs import adhoc
from repro.graphs.adhoc import _GRID_DELTA_CUTOFF, AdHocNetwork
from repro.graphs.generators import random_connected_network
from repro.graphs.unitdisk import connected_labels
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


@pytest.fixture
def label_calls(monkeypatch):
    """Sizes of the topologies the network labels with a full pass."""
    calls: list[int] = []

    def spy(indptr, dst):
        calls.append(len(indptr) - 1)
        return connected_labels(indptr, dst)

    monkeypatch.setattr(adhoc, "connected_labels", spy)
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


class TestLabelCache:
    def test_passing_is_connected_records_one_component(self, label_calls):
        net = AdHocNetwork(lattice(N, 1), RADIUS, side=300.0)
        assert net.is_connected()
        labels = net.component_labels()
        assert labels.shape == (N,) and not labels.any()
        assert not labels.flags.writeable
        assert net.component_labels() is labels
        assert label_calls == []

    def test_connected_generator_needs_no_labelling(self, label_calls):
        net = random_connected_network(N, side=200.0, radius=RADIUS, rng=3)
        assert not net.component_labels().any()
        assert label_calls == []

    def test_split_field_is_labelled_once(self, label_calls):
        net = AdHocNetwork(split_field(2), RADIUS, side=700.0)
        assert not net.is_connected()
        labels = net.component_labels()
        assert label_calls == [N]
        np.testing.assert_array_equal(labels, connected_labels(*net.topology))
        assert set(labels.tolist()) == {0, 500}
        assert net.component_labels() is labels
        assert label_calls == [N]

    def test_failed_is_connected_records_nothing(self, label_calls):
        net = AdHocNetwork(lattice(N, 3), RADIUS, side=300.0)
        assert net.is_connected()
        net.positions[0] = (1e4, 1e4)
        net.apply_moves([0])
        assert not net.is_connected()
        labels = net.component_labels()
        assert label_calls == [N]
        assert labels[0] == 0 and (labels[1:] == 1).all()

    def test_apply_moves_drops_the_cache(self, label_calls):
        net = AdHocNetwork(lattice(N, 4), RADIUS, side=300.0)
        assert net.is_connected()
        before = net.component_labels()
        net.positions[7] += 0.5
        net.apply_moves([7])
        labels = net.component_labels()
        assert labels is not before and not labels.any()
        assert label_calls == [N]  # no is_connected since the move

    @pytest.mark.parametrize("change", ["invalidate", "move_host"])
    def test_invalidate_and_move_host_drop_the_cache(self, change, label_calls):
        net = AdHocNetwork(lattice(N, 5), RADIUS, side=300.0)
        assert net.is_connected()
        net.component_labels()
        if change == "invalidate":
            net.invalidate()
        else:
            net.move_host(3, net.positions[3].copy())
        assert not net.component_labels().any()
        assert label_calls == [N]

    def test_retry_rollback_then_pass_records_one_component(self, label_calls):
        net = AdHocNetwork(lattice(N, 6), RADIUS, side=300.0)
        assert net.is_connected()
        mgr = MobilityManager(net, _Exile(bad=1), max_retries=3, rng=0)
        mgr.step()
        assert mgr.retries_used == 1 and mgr.frozen_intervals == 0
        assert not net.component_labels().any()
        assert label_calls == []

    def test_frozen_interval_drops_the_cache(self, label_calls):
        pos = lattice(N, 7)
        net = AdHocNetwork(pos, RADIUS, side=300.0)
        assert net.is_connected()
        mgr = MobilityManager(net, _Exile(bad=5), max_retries=2, rng=0)
        assert mgr.step() is False
        assert mgr.frozen_intervals == 1
        np.testing.assert_array_equal(net.positions, pos)
        # the rollback replaced the pair and no check passed on it since
        assert not net.component_labels().any()
        assert label_calls == [N]

    def test_small_network_records_only_a_built_topology(self, label_calls):
        net = random_connected_network(100, rng=8)  # rows, pair not built
        assert not net.component_labels().any()
        assert label_calls == [100]
        assert net.is_connected()  # the pair is built now: recorded
        net.positions[2] += 0.5
        net.apply_moves([2])
        assert net.is_connected()  # the rows' pair is dropped: nothing
        assert not net.component_labels().any()
        assert label_calls == [100, 100]


def test_old_import_path_still_works():
    from repro.core import sparse

    assert sparse.connected_labels is connected_labels
    assert "connected_labels" in sparse.__all__


# -- pipelines with and without the network's labels -------------------------

PIPELINES = {
    "stateless": SparseCDSPipeline,
    "incremental": IncrementalSparseCDSPipeline,
}


def _trace(kind, field, *, fixed_point, cutoff, seed, steps=4):
    """Masks, stats and counters of ``steps`` intervals of one pipeline
    on a walking network (retry on the connected field, accept on the
    split one), el2 keys on draining energies.  The topology arrays are
    read-only while the pipeline computes: no kernel may write to them."""
    rng = np.random.default_rng(seed)
    if field == "connected":
        net, policy = AdHocNetwork(lattice(N, seed), RADIUS, side=300.0), "retry"
    else:
        net, policy = AdHocNetwork(split_field(seed), RADIUS, side=700.0), "accept"
    assert net.is_connected() == (field == "connected")
    mgr = MobilityManager(
        net, PaperWalk(stability=0.6), on_disconnect=policy, rng=rng
    )
    pipe = PIPELINES[kind]("el2", fixed_point=fixed_point)
    pipe.engine.dense_cutoff = cutoff
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
    return out, dict(reg.counters), net


@pytest.mark.parametrize("cutoff", [100, 2048])
@pytest.mark.parametrize("fixed_point", [False, True])
@pytest.mark.parametrize("field", ["connected", "split"])
@pytest.mark.parametrize("kind", sorted(PIPELINES))
def test_network_labels_change_nothing(kind, field, fixed_point, cutoff,
                                       monkeypatch):
    seed = 11
    got, counters, net = _trace(
        kind, field, fixed_point=fixed_point, cutoff=cutoff, seed=seed
    )
    with monkeypatch.context() as m:
        m.setattr(AdHocNetwork, "component_labels", lambda self: None)
        want, plain, _ = _trace(
            kind, field, fixed_point=fixed_point, cutoff=cutoff, seed=seed
        )
    assert got == want
    assert {k: v for k, v in counters.items() if k.startswith("sdelta.")} == {
        k: v for k, v in plain.items() if k.startswith("sdelta.")
    }
    assert plain.get("scds.labels_reused", 0) == 0
    calls = counters["scds.batches"]
    assert calls == plain["scds.batches"] == plain["scds.labels_computed"]
    if field == "connected":
        # every engine call read the one component mobility proved
        assert counters["scds.labels_reused"] == calls
        assert "scds.labels_computed" not in counters


def test_first_interval_matches_the_scalar_oracle():
    for field in ("connected", "split"):
        net = (
            AdHocNetwork(lattice(N, 21), RADIUS, side=300.0)
            if field == "connected"
            else AdHocNetwork(split_field(21), RADIUS, side=700.0)
        )
        net.is_connected()
        energy = np.random.default_rng(21).uniform(1.0, 30.0, N)
        want = compute_cds(net.adjacency, "el2", energy=energy)
        for cls in PIPELINES.values():
            pipe = cls("el2")
            pipe.engine.dense_cutoff = 100
            got = pipe.compute(net, energy=energy)
            assert got.gateway_mask == want.gateway_mask
            assert got.stats == want.stats


def test_full_dirt_skips_the_key_order_sort(monkeypatch):
    """On a connected network every moved row dirties the one component,
    so no component is clean and the key orders are never sorted; an
    interval without a changed row sorts both orders."""
    sorts = []
    orig = IncrementalSparseCDSPipeline._key_order

    def spy(self, ekey):
        sorts.append(1)
        return orig(self, ekey)

    monkeypatch.setattr(IncrementalSparseCDSPipeline, "_key_order", spy)
    net = AdHocNetwork(lattice(N, 31), RADIUS, side=300.0)
    assert net.is_connected()
    pipe = IncrementalSparseCDSPipeline("el2")
    energy = np.full(N, 20.0)
    pipe.compute(net, energy=energy)
    net.positions[:50] += 0.7
    net.apply_moves(np.arange(50))
    assert net.is_connected()
    with obs.capture() as reg:
        pipe.compute(net, energy=energy - 1.0)
    assert reg.counters["sdelta.changed_rows"] > 0
    assert sorts == []
    pipe.compute(net, energy=energy - 2.0)  # same pair, new keys
    assert len(sorts) == 2


@pytest.mark.parametrize("cutoff", [2, 2048])
def test_batched_csr_labels_change_nothing(cutoff):
    nets = [random_connected_network(60, rng=s) for s in (1, 2, 3)]
    csr = CSRBatch.from_adjacency([list(net.adjacency) for net in nets])
    energy = np.random.default_rng(4).uniform(1.0, 30.0, (3, 60))
    eS = np.repeat(np.arange(csr.B * csr.n), np.diff(csr.indptr))
    labels = connected_labels(csr.indptr, eS - eS % csr.n + csr.dst)
    labelled = CSRBatch(csr.indptr, csr.dst, csr.B, csr.n, labels)
    for fixed_point in (False, True):
        engine = SparseCDSEngine(
            "el2", fixed_point=fixed_point, dense_cutoff=cutoff
        )
        f0, s0 = engine.run(csr, energy)
        f1, s1 = engine.run(labelled, energy)
        np.testing.assert_array_equal(f0, f1)
        assert s0 == s1
    with pytest.raises(ConfigurationError):
        CSRBatch(csr.indptr, csr.dst, csr.B, csr.n, labels[:-1])
