"""compute_cds facade and reduction pipeline tests."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.cds import compute_cds
from repro.core.delta import CachedRuleEngine, DeltaCDSPipeline
from repro.core.priority import scheme_by_name
from repro.core.properties import is_cds
from repro.core.reduction import prune
from repro.core.marking import marked_mask
from repro.core.sparse import SparseCDSPipeline
from repro.core.sparse_delta import IncrementalSparseCDSPipeline
from repro.core.vectorized import VectorizedCDSPipeline
from repro.errors import ConfigurationError, InvariantViolation
from repro.graphs import bitset
from repro.graphs.generators import (
    clique,
    from_edges,
    path_graph,
    random_gnp_connected,
)


class TestFacade:
    def test_accepts_view_network_and_raw_adjacency(self, small_network):
        by_net = compute_cds(small_network, "id")
        by_view = compute_cds(small_network.snapshot(), "id")
        by_raw = compute_cds(list(small_network.adjacency), "id")
        assert by_net.gateways == by_view.gateways == by_raw.gateways

    def test_scheme_object_and_name_agree(self, small_network):
        a = compute_cds(small_network, "nd")
        b = compute_cds(small_network, scheme_by_name("nd"))
        assert a.gateways == b.gateways

    def test_el_scheme_without_energy_raises(self, small_network):
        with pytest.raises(ConfigurationError, match="energy"):
            compute_cds(small_network, "el1")

    def test_energy_length_mismatch_raises(self, small_network):
        with pytest.raises(ConfigurationError, match="entries"):
            compute_cds(small_network, "el1", energy=[1.0, 2.0])

    def test_result_accessors_agree(self, small_network):
        r = compute_cds(small_network, "id")
        assert r.size == len(r.gateways)
        assert r.gateways == set(bitset.ids_from_mask(r.gateway_mask))
        vec = r.status_vector()
        assert all(vec[v] == r.is_gateway(v) for v in range(r.n))
        assert r.n == small_network.n

    def test_clique_yields_empty_set(self):
        r = compute_cds(clique(5), "id", verify=True)  # verify skips empty
        assert r.size == 0

    def test_verify_flag_checks_invariants(self, small_network):
        r = compute_cds(small_network, "nd", verify=True)
        assert is_cds(small_network.adjacency, r.gateway_mask)


class TestReduction:
    def test_nr_scheme_is_identity(self, small_network):
        adj = list(small_network.adjacency)
        marked = marked_mask(adj)
        out, stats = prune(adj, marked, scheme_by_name("nr"))
        assert out == marked
        assert stats.rounds == 0
        assert stats.removed_rule1 == stats.removed_rule2 == 0

    def test_stats_are_consistent(self, small_network):
        r = compute_cds(small_network, "nd")
        s = r.stats
        assert s.initial_marked - s.removed_rule1 - s.removed_rule2 == r.size
        assert s.rounds == 1  # paper mode: single pass

    def test_fixed_point_never_larger_and_still_cds(self, random_graphs):
        for g, energy in random_graphs:
            single = compute_cds(g, "nd")
            fp = compute_cds(g, "nd", fixed_point=True)
            assert fp.size <= single.size
            if fp.size:
                assert is_cds(g.adjacency, fp.gateway_mask)

    def test_fixed_point_terminates_and_reports_rounds(self):
        g = path_graph(30)
        r = compute_cds(g, "id", fixed_point=True)
        assert r.stats.rounds >= 1
        assert is_cds(g.adjacency, r.gateway_mask)

    def test_pruned_set_is_subset_of_marked(self, random_graphs):
        for g, energy in random_graphs:
            marked = marked_mask(g.adjacency)
            for scheme in ("id", "nd", "el1", "el2"):
                r = compute_cds(g, scheme, energy=energy)
                assert bitset.is_subset(r.gateway_mask, marked)


class TestDeterminism:
    def test_same_input_same_output(self, random_graphs):
        g, energy = random_graphs[0]
        a = compute_cds(g, "el2", energy=energy)
        b = compute_cds(g, "el2", energy=energy)
        assert a.gateway_mask == b.gateway_mask

    def test_energy_perturbation_below_quantum_is_ignored(self):
        g = from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4)])
        base = [3.0, 3.0, 1.0, 1.0, 1.0]
        bumped = [3.0 + 1e-13, 3.0, 1.0, 1.0, 1.0]
        assert (
            compute_cds(g, "el1", energy=base).gateways
            == compute_cds(g, "el1", energy=bumped).gateways
        )


def _wrong_stats(stats):
    return dataclasses.replace(stats, rounds=stats.rounds + 1)


class TestShadowCheckComparesStats:
    """Every pipeline's shadow check must reject a right mask whose
    ``PruneStats`` differ from the scalar oracle's."""

    def _corrupt_vectorized(self, pipe, monkeypatch):
        real = pipe.engine.run

        def run(packed, energy=None):
            flags, stats = real(packed, energy)
            return flags, [_wrong_stats(s) for s in stats]

        monkeypatch.setattr(pipe.engine, "run", run)

    _corrupt_sparse = _corrupt_vectorized

    def _corrupt_incremental_sparse(self, pipe, monkeypatch):
        real = pipe.engine.run_detailed

        def run_detailed(csr, energy=None):
            d = real(csr, energy)
            return dataclasses.replace(d, rounds_c=d.rounds_c + 1)

        monkeypatch.setattr(pipe.engine, "run_detailed", run_detailed)

    def _corrupt_delta(self, pipe, monkeypatch):
        # the pipeline builds a fresh engine on its cold start
        real = CachedRuleEngine.run

        def run(engine, marked, **kwargs):
            final, stats = real(engine, marked, **kwargs)
            return final, _wrong_stats(stats)

        monkeypatch.setattr(CachedRuleEngine, "run", run)

    @pytest.mark.parametrize(
        "make, corrupt",
        [
            (VectorizedCDSPipeline, "_corrupt_vectorized"),
            (SparseCDSPipeline, "_corrupt_sparse"),
            (IncrementalSparseCDSPipeline, "_corrupt_incremental_sparse"),
            (DeltaCDSPipeline, "_corrupt_delta"),
        ],
    )
    def test_right_mask_wrong_stats_raises(
        self, small_network, monkeypatch, make, corrupt
    ):
        clean = make("nd", shadow_check=True).compute(small_network)
        assert clean.stats == compute_cds(small_network, "nd").stats
        pipe = make("nd", shadow_check=True)
        getattr(self, corrupt)(pipe, monkeypatch)
        with pytest.raises(InvariantViolation, match="diverged"):
            pipe.compute(small_network)
