"""Unit tests for the incremental delta-CDS pipeline (repro.core.delta).

The equivalence *properties* (delta == scratch over random move
sequences) live in ``tests/property/test_incremental_properties.py``;
this file covers the machinery: cold starts, short-circuiting, cache
invalidation, reset, shadow checking, and input validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.cds import compute_cds
from repro.core.delta import CachedRuleEngine, DeltaCDSPipeline
from repro.errors import ConfigurationError, InvariantViolation
from repro.graphs.adhoc import AdHocNetwork
from repro.graphs.generators import random_connected_network


@pytest.fixture()
def net():
    return random_connected_network(30, rng=42)


class TestShortCircuit:
    def test_unchanged_interval_returns_previous_result(self, net):
        pipe = DeltaCDSPipeline("nd")
        first = pipe.compute(net)
        second = pipe.compute(net)
        assert second is first  # not merely equal: no stage re-ran

    def test_short_circuit_counter(self, net):
        pipe = DeltaCDSPipeline("nd")
        with obs.capture() as reg:
            pipe.compute(net)
            pipe.compute(net)
            pipe.compute(net)
        assert reg.counters["delta.intervals"] == 3
        assert reg.counters["delta.short_circuit"] == 2

    def test_sub_quantum_energy_change_short_circuits(self, net):
        # el1 quantizes energy; a change far below the quantum leaves the
        # key vector bit-identical, so the whole interval short-circuits
        pipe = DeltaCDSPipeline("el1")
        energy = np.full(net.n, 50.0)
        first = pipe.compute(net, energy=energy)
        second = pipe.compute(net, energy=energy + 1e-13)
        assert second is first

    def test_key_change_recomputes(self, net):
        pipe = DeltaCDSPipeline("el1")
        energy = np.linspace(10.0, 90.0, net.n)
        first = pipe.compute(net, energy=energy)
        flipped = pipe.compute(net, energy=energy[::-1].copy())
        assert flipped is not first
        want = compute_cds(net.snapshot(), "el1", energy=energy[::-1])
        assert flipped.gateway_mask == want.gateway_mask

    def test_topology_change_recomputes(self, net):
        pipe = DeltaCDSPipeline("nd")
        first = pipe.compute(net)
        net.positions[0] += 40.0
        net.apply_moves([0])
        second = pipe.compute(net)
        assert second is not first
        want = compute_cds(net.snapshot(), "nd")
        assert second.gateway_mask == want.gateway_mask


class TestLifecycle:
    def test_reset_forces_cold_start(self, net):
        pipe = DeltaCDSPipeline("nd")
        first = pipe.compute(net)
        pipe.reset()
        with obs.capture() as reg:
            again = pipe.compute(net)
        assert again is not first
        assert again.gateway_mask == first.gateway_mask
        # a cold start diffs nothing: every row counts as changed
        assert reg.counters["delta.changed_rows"] == net.n

    def test_size_change_forces_cold_start(self, net):
        pipe = DeltaCDSPipeline("nd")
        pipe.compute(net)
        smaller = random_connected_network(12, rng=7)
        got = pipe.compute(smaller)
        want = compute_cds(smaller.snapshot(), "nd")
        assert got.gateway_mask == want.gateway_mask

    def test_accepts_raw_adjacency_list(self, net):
        pipe = DeltaCDSPipeline("nd")
        got = pipe.compute(list(net.adjacency))
        want = compute_cds(net.snapshot(), "nd")
        assert got.gateway_mask == want.gateway_mask

    def test_single_host(self):
        single = AdHocNetwork(np.zeros((1, 2)), 25.0)
        pipe = DeltaCDSPipeline("nd")
        assert pipe.compute(single).gateway_mask == 0


class TestValidation:
    def test_energy_scheme_requires_energy(self, net):
        pipe = DeltaCDSPipeline("el2")
        with pytest.raises(ConfigurationError, match="energy"):
            pipe.compute(net)

    def test_energy_length_mismatch(self, net):
        pipe = DeltaCDSPipeline("el2")
        with pytest.raises(ConfigurationError, match="entries"):
            pipe.compute(net, energy=np.ones(net.n + 1))

    def test_verify_mode_accepts_valid_results(self, net):
        pipe = DeltaCDSPipeline("nd", verify=True)
        net.positions[3] += 10.0
        net.apply_moves([3])
        assert pipe.compute(net).size >= 1


class TestShadowCheck:
    def test_shadow_check_passes_silently(self, net):
        pipe = DeltaCDSPipeline("nd", shadow_check=True)
        with obs.capture() as reg:
            pipe.compute(net)
            net.positions[5] += 15.0
            net.apply_moves([5])
            pipe.compute(net)
        assert reg.counters["delta.shadow_checks"] == 2

    def test_shadow_check_raises_on_divergence(self, net, monkeypatch):
        pipe = DeltaCDSPipeline("nd", shadow_check=True)
        reference = pipe.compute(net)  # first call: genuine agreement

        import repro.core.delta as delta_mod

        def corrupted(adj, scheme, **kwargs):
            out = compute_cds(adj, scheme, **kwargs)
            object.__setattr__(
                out, "gateway_mask", out.gateway_mask ^ 1
            )
            return out

        monkeypatch.setattr(delta_mod, "compute_cds", corrupted)
        net.positions[5] += 15.0
        net.apply_moves([5])
        with pytest.raises(InvariantViolation, match="diverged"):
            pipe.compute(net)
        assert reference.gateway_mask  # untouched by the failed interval


class TestCachedRuleEngine:
    def test_run_matches_scratch_prune(self, net):
        from repro.core.marking import marked_mask
        from repro.core.priority import scheme_by_name

        adj = list(net.adjacency)
        energy = np.linspace(5.0, 95.0, net.n)
        for name in ("nr", "id", "nd", "el1", "el2"):
            scheme = scheme_by_name(name)
            engine = CachedRuleEngine(scheme)
            e = energy if scheme.needs_energy else None
            engine.update(adj, (1 << net.n) - 1, e)
            marked = marked_mask(adj)
            final, stats = engine.run(marked)
            want = compute_cds(adj, scheme, energy=e)
            assert final == want.gateway_mask
            assert stats == want.stats

    def test_patch_only_touches_changed_rows(self, net):
        from repro.core.priority import scheme_by_name

        scheme_adj = list(net.adjacency)
        engine = CachedRuleEngine(scheme_by_name("nd"))
        engine.update(scheme_adj, (1 << net.n) - 1, None)
        # flip one edge symmetrically and patch just those two rows
        u, v = 0, next(iter(range(1, net.n)))
        scheme_adj[u] ^= 1 << v
        scheme_adj[v] ^= 1 << u
        engine.update(scheme_adj, (1 << u) | (1 << v), None)
        assert engine.adjacency == scheme_adj


class TestWordBoundarySizes:
    """Tail-word regression (ISSUE 7): the packed uint64 paths must be
    exact when n is not a multiple of 64 — stray bits in the last word
    would corrupt coverage verdicts and firing tables."""

    @pytest.mark.parametrize("n", [63, 64, 65, 127])
    def test_delta_pipeline_matches_scratch_across_moves(self, n):
        import math

        rng = np.random.default_rng(n)
        side = 100.0 * math.sqrt(n / 100)
        net = AdHocNetwork(
            rng.uniform(0.0, side, size=(n, 2)), 25.0, side=side
        )
        net.adjacency
        pipe = DeltaCDSPipeline("nd")
        for _ in range(4):
            got = pipe.compute(net)
            want = compute_cds(net.snapshot(), "nd")
            assert got.gateway_mask == want.gateway_mask
            assert got.stats == want.stats
            ids = rng.choice(n, size=max(1, n // 8), replace=False)
            net.positions[ids] += rng.uniform(-8.0, 8.0, size=(len(ids), 2))
            net.positions[:] = np.clip(net.positions, 0.0, side)
            net.apply_moves(list(ids))

    @pytest.mark.parametrize("n", [63, 64, 65, 127])
    def test_changed_row_detection_at_boundary(self, n):
        # the object-array row compare must see a single flipped edge on
        # the highest row (the one living in the tail word)
        adj = [0] * n
        for i in range(n - 1):
            adj[i] |= 1 << (i + 1)
            adj[i + 1] |= 1 << i
        pipe = DeltaCDSPipeline("id")
        pipe.compute(adj)
        adj2 = list(adj)
        adj2[n - 1] ^= 1 << 0
        adj2[0] ^= 1 << (n - 1)
        got = pipe.compute(adj2)
        want = compute_cds(adj2, "id")
        assert got.gateway_mask == want.gateway_mask
        assert got.stats == want.stats


def _churn_state(n: int, seed: int = 3):
    import math

    from repro.service.state import TenantState

    side = 100.0 * math.sqrt(n / 100)
    state = TenantState(radius=25.0, side=side)
    rng = np.random.default_rng(seed)
    state.seed_population(
        rng.uniform(0.0, side, size=(n, 2)),
        list(rng.uniform(5.0, 95.0, size=n)),
    )
    return state


def _snap(state):
    from types import SimpleNamespace

    return SimpleNamespace(
        adjacency=list(state.adjacency), ids=tuple(state.ids)
    )


@pytest.fixture()
def local_refresh(monkeypatch):
    """Take the topology-local refresh whenever any row is kept, even on
    networks small enough that the engine would rebuild them whole."""
    import repro.core.delta as delta_mod

    monkeypatch.setattr(delta_mod, "_MIN_KEPT_WORDS", 0)


@pytest.mark.usefixtures("local_refresh")
class TestSplice:
    """Joins and leaves with ``ids`` relabel the cached state in place."""

    def _check(self, pipe, state):
        got = pipe.compute(_snap(state), energy=list(state.energy))
        want = compute_cds(
            list(state.adjacency), "el2", energy=list(state.energy)
        )
        assert got.gateway_mask == want.gateway_mask
        assert got.stats == want.stats

    @pytest.mark.parametrize(
        "n, joins, leaves", [(64, 1, 0), (65, 0, 1), (128, 2, 1), (129, 0, 2)]
    )
    def test_membership_change_across_a_word_boundary(self, n, joins, leaves):
        from repro.service.updates import Join, Leave

        state = _churn_state(n)
        pipe = DeltaCDSPipeline("el2")
        self._check(pipe, state)
        width = pipe.engine._W
        for k in range(leaves):
            state.apply(Leave(state.ids[7 + 13 * k]))
        for k in range(joins):
            state.apply(Join(1000 + k, 5.0 + 9.0 * k, 40.0, energy=50.0))
        with obs.capture() as reg:
            self._check(pipe, state)
        assert reg.counters["delta.splices"] == 1
        assert "delta.cold_starts" not in reg.counters
        assert pipe.engine._W == max(1, (state.n + 63) // 64) != width

    def test_leave_of_an_isolated_node(self):
        from repro.service.updates import Join, Leave

        state = _churn_state(30)
        pipe = DeltaCDSPipeline("el2")
        state.apply(Join(99, 10_000.0, 10_000.0))  # far from everyone
        self._check(pipe, state)
        state.apply(Leave(99))
        with obs.capture() as reg:
            self._check(pipe, state)
        assert reg.counters["delta.splices"] == 1

    def test_reordered_ids_start_cold(self):
        from repro.service.updates import Join, Leave

        state = _churn_state(30)
        pipe = DeltaCDSPipeline("el2")
        self._check(pipe, state)
        # a leave then a rejoin of the same id moves it to the end: the
        # survivors' order no longer matches, so the splice is refused
        x, y = state.positions[state.index_of(4)]
        state.apply(Leave(4))
        state.apply(Join(4, float(x), float(y)))
        with obs.capture() as reg:
            self._check(pipe, state)
        assert reg.counters["delta.cold_starts"] == 1
        assert "delta.splices" not in reg.counters

    def test_same_size_membership_change_splices(self):
        from repro.service.updates import Join, Leave

        state = _churn_state(40)
        pipe = DeltaCDSPipeline("el2")
        self._check(pipe, state)
        state.apply(Leave(state.ids[5]))
        state.apply(Join(500, 30.0, 30.0))
        with obs.capture() as reg:
            self._check(pipe, state)
        assert reg.counters["delta.splices"] == 1
        assert "delta.cold_starts" not in reg.counters

    @pytest.mark.parametrize("base", ["nr", "nd"])
    def test_custom_scheme_splices(self, base):
        # a non-registry scheme ranks by exact tuple keys (generic path)
        import dataclasses

        from repro.core.priority import scheme_by_name
        from repro.service.updates import Join, Leave, Move

        scheme = dataclasses.replace(scheme_by_name(base), name="custom")
        state = _churn_state(70)
        pipe = DeltaCDSPipeline(scheme)
        for step in range(4):
            if step == 1:
                x, y = state.positions[9]
                state.apply(Move(state.ids[9], float(x) + 8.0, float(y)))
            elif step == 2:
                state.apply(Leave(state.ids[3]))
            elif step == 3:
                state.apply(Join(700, 20.0, 20.0))
            got = pipe.compute(_snap(state))
            want = compute_cds(list(state.adjacency), scheme)
            assert got.gateway_mask == want.gateway_mask
            assert got.stats == want.stats

    def test_ids_length_mismatch(self, net):
        from types import SimpleNamespace

        pipe = DeltaCDSPipeline("nd")
        graph = SimpleNamespace(adjacency=list(net.adjacency), ids=(1, 2))
        with pytest.raises(ConfigurationError, match="ids"):
            pipe.compute(graph)


@pytest.mark.usefixtures("local_refresh")
class TestChunkedSweep:
    @pytest.mark.parametrize("scheme", ["id", "nd", "el2"])
    def test_small_chunks_match_scratch(self, monkeypatch, scheme):
        # chunks of the minimum 256 triples: group-aligned cuts, groups
        # larger than a chunk, and the trailing partial chunk all occur
        import repro.core.delta as delta_mod
        from repro.service.updates import Join, Leave, Move

        monkeypatch.setattr(delta_mod, "_CHUNK_WORDS", 1)
        state = _churn_state(150, seed=11)
        pipe = DeltaCDSPipeline(scheme)
        for step in range(6):
            if step == 2:
                state.apply(Leave(state.ids[20]))
                state.apply(Join(900, 50.0, 60.0))
            elif step:
                v = 13 * step
                x, y = state.positions[v]
                state.apply(Move(state.ids[v], float(x) + 9.0, float(y)))
            e = list(state.energy)
            got = pipe.compute(_snap(state), energy=e)
            want = compute_cds(list(state.adjacency), scheme, energy=e)
            assert got.gateway_mask == want.gateway_mask
            assert got.stats == want.stats

    @pytest.mark.parametrize("scheme", ["id", "nd"])
    def test_first_group_larger_than_a_chunk(self, monkeypatch, scheme):
        # row 0 is a hub of degree 30 (435 pairs > the 256-triple chunk),
        # so the first chunk must stretch to hold its whole group — on
        # the cold build and on a local refresh that changes row 0
        import repro.core.delta as delta_mod

        monkeypatch.setattr(delta_mod, "_CHUNK_WORDS", 1)
        n = 45
        edges = [(0, v) for v in range(1, 31)]
        edges += [(v, v + 1) for v in range(1, 30)] + [(30, 1)]
        edges += [(v, v + 1) for v in range(30, n - 1)]
        adj = [0] * n
        for a, b in edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        pipe = DeltaCDSPipeline(scheme)
        for extra in (None, 35, 40):
            if extra is not None:  # grow the hub: rows 0 and extra change
                adj[0] |= 1 << extra
                adj[extra] |= 1 << 0
            with obs.capture() as reg:
                got = pipe.compute(list(adj))
            want = compute_cds(list(adj), scheme)
            assert got.gateway_mask == want.gateway_mask
            assert got.stats == want.stats
            if extra is not None:
                assert reg.counters["delta.retest_frac"] < 1.0


class TestRetestCounters:
    def test_small_networks_rebuild_whole(self, net):
        pipe = DeltaCDSPipeline("nd")
        pipe.compute(net)
        net.positions[3] += 10.0
        net.apply_moves([3])
        with obs.capture() as reg:
            got = pipe.compute(net)
        # a 30-node network holds too few words to be worth splicing
        assert reg.counters["delta.retest_frac"] == 1.0
        assert got.gateway_mask == compute_cds(net.snapshot(), "nd").gateway_mask

    def test_one_move_retests_a_local_share(self):
        from repro.service.updates import Move

        state = _churn_state(400)
        pipe = DeltaCDSPipeline("el2")
        with obs.capture() as reg:
            pipe.compute(_snap(state), energy=list(state.energy))
            assert reg.counters["delta.cold_starts"] == 1
            assert reg.counters["delta.retest_frac"] == 1.0
            x, y = state.positions[10]
            state.apply(Move(10, float(x) + 6.0, float(y)))
            pipe.compute(_snap(state), energy=list(state.energy))
        assert reg.counters["delta.topology_refreshes"] == 2
        assert reg.counters["delta.cold_starts"] == 1
        # the second refresh re-tested only the moved node's region
        assert 1.0 < reg.counters["delta.retest_frac"] < 1.5
        assert reg.counters["delta.triples_retested"] > 0
