"""Stage spans and Rule-2 counters of the shared batch kernels.

The dense engine (:class:`BatchCDSEngine`) and the sparse engine's big
tier run one kernel set; both open the stage spans ``edge_table``,
``edge_miss``, ``rule1``, ``rule2_triples`` and ``rule2_rounds``, and the
sparse engine a ``components`` span for its labelling and a ``relabel``
span for the visit-order renumbering of its big tier.  One
traced run must emit each of them a bounded number of times — the edge
stages once per call, the rule stages at most once per Rule-1/Rule-2
round — so tracing stays O(stages), and the Rule-2 counters must
equal the scalar engine's counts on the same input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.cds import compute_cds
from repro.core.sparse import CSRBatch, SparseCDSEngine
from repro.core.vectorized import BatchCDSEngine, pack_batch
from repro.graphs.generators import random_connected_network

STAGES = ("edge_table", "edge_miss", "rule1", "rule2_triples", "rule2_rounds")


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _run(engine_kind: str, adj, levels, fixed_point: bool):
    if engine_kind == "dense":
        engine = BatchCDSEngine("el2", fixed_point=fixed_point)
        return "cds_batch", engine.run(pack_batch([adj]), levels[None, :])
    engine = SparseCDSEngine("el2", fixed_point=fixed_point, dense_cutoff=2)
    csr = CSRBatch.from_adjacency([adj])
    return "cds_sparse", engine.run(csr, levels[None, :])


@pytest.mark.parametrize("fixed_point", [False, True])
@pytest.mark.parametrize("engine_kind", ["dense", "sparse"])
def test_stage_spans_bounded_per_round(engine_kind, fixed_point):
    net = random_connected_network(80, rng=11)
    adj = list(net.adjacency)
    # coarse levels: many key ties, so fixed-point runs take >1 round
    levels = np.random.default_rng(3).integers(1, 4, size=net.n).astype(float)
    with obs.capture(trace=True) as reg:
        root, (_, stats) = _run(engine_kind, adj, levels, fixed_point)
    rounds = stats[0].rounds
    assert rounds >= (2 if fixed_point else 1)
    spans = reg.spans
    per_call = {"edge_table": 1, "edge_miss": 1}
    if engine_kind == "sparse":
        # the sparse engine labels its components, and its big tier
        # renumbers the nodes into visit order
        per_call["components"] = 1
        per_call["relabel"] = 1
        assert spans["cds_sparse/components"].count == 1
        assert spans["cds_sparse/relabel"].count == 1
        assert reg.counters["kernels.order_computed"] == 1
    for stage in STAGES:
        got = spans[f"{root}/{stage}"].count
        if stage in per_call:
            assert got == per_call[stage], stage
        elif stage == "rule2_rounds":  # skipped when nothing fires
            assert 1 <= got <= rounds, stage
        else:
            assert got == rounds, stage
    traced = [ev for ev in reg.trace_events if ev["ev"] == "span"]
    # root + per-call stages + rule stages
    assert len(traced) <= 1 + len(per_call) + 3 * rounds

    # the kernel counts what the scalar engine counts
    with obs.capture() as scalar:
        want = compute_cds(adj, "el2", energy=levels, fixed_point=fixed_point)
    assert want.stats == stats[0]
    c, s = reg.counters, scalar.counters
    assert c["rule2.coverage_tests"] == s["rule2.coverage_tests"]
    assert c["rule2.firing_pairs"] == s["rule2.firing_pairs"]
    assert (
        c["rule2.coverage_tests"]
        >= c["rule2.covered_triples"]
        >= c["rule2.firing_pairs"]
        > 0
    )
