"""Position-native lifespans never build the Python-int bitmask rows.

Above the dense cutoff ``AdHocNetwork`` keeps its topology as a sorted
edge list; the mobility manager, the vectorized pipeline and both
sparse pipelines read that list, so a whole lifespan on those backends
must end with no int-row cache and a zero
``graphs.int_rows_built`` count — while its ``TrialMetrics`` equal the
scalar backend's, which does read the rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.cds import compute_cds
from repro.core.sparse import SparseCDSPipeline
from repro.core.sparse_delta import IncrementalSparseCDSPipeline
from repro.core.vectorized import VectorizedCDSPipeline
from repro.graphs.generators import random_connected_network, scaled_side
from repro.simulation.config import SimulationConfig
from repro.simulation.lifespan import LifespanSimulator

N = 2000
SEED = 5
CONFIG = SimulationConfig(
    n_hosts=N,
    side=scaled_side(N),
    scheme="el2",
    drain_model="fixed",
    stability=0.9,
    initial_energy=8.0,
)


def _run(backend: str, incremental: bool | None = None):
    sim = LifespanSimulator(
        CONFIG.with_overrides(backend=backend, incremental=incremental),
        rng=np.random.default_rng(SEED),
    )
    with obs.capture() as reg:
        result = sim.run()
    return sim, result, reg.counters.get("graphs.int_rows_built", 0)


@pytest.fixture(scope="module")
def scalar_run():
    return _run("scalar")


def test_scalar_backend_reads_int_rows(scalar_run):
    sim, result, built = scalar_run
    assert result.metrics.lifespan >= 3
    assert sim.network.has_adjacency_cache
    assert built >= result.metrics.lifespan


@pytest.mark.parametrize(
    "backend, incremental",
    [("sparse", None), ("sparse", False), ("vectorized", None)],
)
def test_no_int_rows_and_scalar_metrics(backend, incremental, scalar_run):
    sim, result, built = _run(backend, incremental)
    assert not sim.network.has_adjacency_cache
    assert built == 0
    assert result.metrics == scalar_run[1].metrics


@pytest.mark.parametrize("fixed_point", [False, True])
@pytest.mark.parametrize("scheme", ["nr", "id", "nd", "el1", "el2"])
def test_edge_list_pipelines_match_scratch(scheme, fixed_point):
    """The kernel pipelines on a network above the cutoff, fed its edge list,
    against the scalar oracle on its int rows (masks and stats)."""
    net = random_connected_network(600, side=scaled_side(600), rng=13)
    assert net.keeps_edge_list
    energy = np.random.default_rng(14).integers(1, 5, net.n).astype(float)
    energy = energy if scheme.startswith("el") else None
    got = [
        make(scheme, fixed_point=fixed_point).compute(net, energy=energy)
        for make in (
            VectorizedCDSPipeline,
            SparseCDSPipeline,
            IncrementalSparseCDSPipeline,
        )
    ]
    assert not net.has_adjacency_cache
    want = compute_cds(
        net.snapshot(), scheme, energy=energy, fixed_point=fixed_point
    )
    for res in got:
        assert res.gateway_mask == want.gateway_mask
        assert res.stats == want.stats
