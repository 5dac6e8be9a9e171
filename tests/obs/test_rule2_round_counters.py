"""The batch round loop counts what the scalar engine counts.

:meth:`repro.core.rules.RuleEngine.rule2_pass` emits
``rule2.candidates_initial``, ``rule2.candidate_rounds`` and
``rule2.removed`` per pass; :meth:`BatchCDSEngine._rule2` emits the same
names, so on a one-element batch the candidates and removals must agree
with the scalar engine summed over the same Rule-2 passes.  The kernel's
``rule2.candidate_rounds`` counts its settled-set commit rounds, which
are never more than the scalar's local-minimum rounds.  The batch loop
also counts ``rule2.worklist_triples``, the firing triples its rounds
scanned: the first round scans them all and later rounds only what is
left, so the sum lies between one and ``rounds`` full scans.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.cds import compute_cds
from repro.core.sparse import CSRBatch, SparseCDSEngine
from repro.core.vectorized import BatchCDSEngine, pack_batch
from repro.graphs.generators import random_connected_network

SCALAR_NAMES = (
    "rule2.candidates_initial",
    "rule2.removed",
)


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def instance():
    net = random_connected_network(90, rng=23)
    # coarse levels: key ties, so energy schemes take several rounds
    levels = np.random.default_rng(5).integers(1, 4, size=net.n).astype(float)
    return list(net.adjacency), levels


def _batch_run(engine_kind, scheme, adj, levels, fixed_point):
    if engine_kind == "dense":
        engine = BatchCDSEngine(scheme, fixed_point=fixed_point)
        return engine.run(pack_batch([adj]), levels[None, :])
    engine = SparseCDSEngine(scheme, fixed_point=fixed_point, dense_cutoff=2)
    return engine.run(CSRBatch.from_adjacency([adj]), levels[None, :])


@pytest.mark.parametrize("fixed_point", [False, True])
@pytest.mark.parametrize("engine_kind", ["dense", "sparse"])
@pytest.mark.parametrize("scheme", ["id", "nd", "el1", "el2"])
def test_round_counters_match_scalar(instance, scheme, engine_kind, fixed_point):
    adj, levels = instance
    with obs.capture() as batch:
        _, stats = _batch_run(engine_kind, scheme, adj, levels, fixed_point)
    with obs.capture() as scalar:
        want = compute_cds(adj, scheme, energy=levels, fixed_point=fixed_point)
    assert stats[0] == want.stats
    c, s = batch.counters, scalar.counters
    for name in SCALAR_NAMES:
        assert c.get(name, 0) == s.get(name, 0), name
    assert c["rule2.removed"] == want.stats.removed_rule2 > 0
    assert 1 <= c["rule2.candidate_rounds"] <= s["rule2.candidate_rounds"]
    if scheme == "id":
        # every firing triple is safe, so the first pass commits all its
        # candidates in one round and leaves none for a later pass
        assert c["rule2.candidate_rounds"] == 1
    assert (
        c["rule2.firing_pairs"]
        <= c["rule2.worklist_triples"]
        <= c["rule2.candidate_rounds"] * c["rule2.firing_pairs"]
    )


def test_counters_present_when_nothing_fires():
    # a star: the hub is the only marked node, so no triple fires
    n = 6
    adj = [sum(1 << u for u in range(1, n))] + [1] * (n - 1)
    with obs.capture() as reg:
        BatchCDSEngine("id").run(pack_batch([adj]))
    c = reg.counters
    for name in SCALAR_NAMES + (
        "rule2.candidate_rounds",
        "rule2.worklist_triples",
    ):
        assert c[name] == 0, name
