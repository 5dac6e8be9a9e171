"""BackboneService end-to-end: publish/query, shedding, degradation,
quarantine, and crash-recovery bit-identity.

No pytest-asyncio in the image: each scenario runs under ``asyncio.run``
inside a plain test function.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro import obs
from repro.core.cds import compute_cds
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    InvariantViolation,
    RoutingError,
    ServiceOverloaded,
    TenantQuarantinedError,
)
from repro.faults.plan import FaultPlan
from repro.service import BackboneService, ServiceConfig
from repro.service.chaos import ChaosSchedule
from repro.service.driver import seed_positions, tenant_seed
from repro.service.state import TenantState
from repro.service.supervisor import RestartPolicy
from repro.service.updates import Drain, Join, Leave, Move, UpdateStream

_HOSTS = 16
_SEED = 2001

#: a 6-node line spaced 20 apart with radius 25: a path topology whose
#: backbone is exactly the interior nodes
_LINE = np.array([[20.0 * i, 50.0] for i in range(6)])

_FAST_RESTART = RestartPolicy(
    base_delay_s=0.0, max_delay_s=0.0, jitter=0.0, max_failures=5
)


def _positions():
    return seed_positions(_SEED, 0, _HOSTS, 100.0)


def _stream():
    return UpdateStream(seed=tenant_seed(_SEED, 0), n_initial=_HOSTS)


async def _drive(service, tenant, updates, *, deadline_s=60.0):
    stream = _stream()
    for upd in stream.take(updates):
        await service.submit(tenant, upd, deadline_s=deadline_s)
    await service.wait_seq(tenant, updates, deadline_s=deadline_s)


async def _clean_digest(updates: int) -> str:
    """Digest of an uninterrupted RAM-only run — the recovery oracle."""
    service = BackboneService(ServiceConfig())
    try:
        await service.add_tenant("t", _positions())
        await _drive(service, "t", updates)
        return service.state_digest("t")
    finally:
        await service.close()


class TestPublishAndQuery:
    def test_cold_start_publishes_a_verified_backbone(self):
        async def go():
            service = BackboneService(ServiceConfig())
            try:
                assert await service.add_tenant("net", _LINE) == 0
                view = await service.get_backbone("net", deadline_s=5.0)
                assert view.seq == 0 and not view.stale
                assert view.gateways == frozenset({1, 2, 3, 4})
                path = view.route(0, 5)
                assert path == [0, 1, 2, 3, 4, 5]
            finally:
                await service.close()

        asyncio.run(go())

    def test_updates_advance_the_published_view(self):
        async def go():
            service = BackboneService(ServiceConfig())
            try:
                await service.add_tenant("net", _positions())
                await _drive(service, "net", 25)
                view = await service.get_backbone("net")
                assert view.seq == 25 and not view.stale
                stats = service.stats("net")
                assert stats["applied"] == 25
                assert stats["published_seq"] == 25
            finally:
                await service.close()

        asyncio.run(go())

    def test_route_edge_cases(self):
        async def go():
            service = BackboneService(ServiceConfig())
            try:
                await service.add_tenant("net", _LINE)
                view = await service.get_backbone("net", deadline_s=5.0)
                assert view.route(3, 3) == [3]
                with pytest.raises(RoutingError, match="unknown node"):
                    view.route(0, 99)
            finally:
                await service.close()

        asyncio.run(go())

    def test_route_across_a_partition_fails_typed(self):
        async def go():
            # two line clusters 200 apart: no backbone path between them
            far = np.vstack([_LINE, _LINE + [300.0, 0.0]])
            service = BackboneService(ServiceConfig())
            try:
                await service.add_tenant("net", far)
                with pytest.raises(RoutingError, match="no backbone path"):
                    await service.route("net", 0, 11, deadline_s=5.0)
            finally:
                await service.close()

        asyncio.run(go())

    def test_unknown_tenant_rejected(self):
        async def go():
            service = BackboneService(ServiceConfig())
            try:
                with pytest.raises(ConfigurationError, match="unknown tenant"):
                    await service.get_backbone("ghost")
            finally:
                await service.close()

        asyncio.run(go())


class TestCoalescedBatches:
    def test_queued_burst_costs_one_publish(self):
        async def go():
            service = BackboneService(ServiceConfig())
            try:
                with obs.capture() as reg:
                    await service.add_tenant("net", _positions())
                    await service.get_backbone("net", deadline_s=5.0)
                    baseline = reg.counters["service.publishes"]
                    # no await between submissions: all ten are queued
                    # before the maintenance task runs
                    for upd in _stream().take(10):
                        service.submit_nowait("net", upd)
                    await service.wait_seq("net", 10, deadline_s=60.0)
                assert reg.counters["service.publishes"] == baseline + 1
                assert reg.counters["service.batches"] == 1
                assert reg.counters["service.batch_size_max"] == 10
                assert reg.counters["service.updates_applied"] == 10
                view = await service.get_backbone("net")
                assert view.seq == 10 and not view.stale
                state = service._tenants["net"].state
                want = compute_cds(
                    state.adjacency, state.scheme, energy=state.energy
                )
                assert view.gateway_mask == want.gateway_mask
                assert service.stats("net")["applied"] == 10
            finally:
                await service.close()

        asyncio.run(go())

    def test_wait_seq_never_runs_ahead_of_the_published_view(self):
        async def go():
            # every recompute is slowed, and the inline path sleeps on
            # the event loop: waiters run while the batch is unpublished
            chaos = ChaosSchedule(
                FaultPlan(seed=5, delay=0.99), base_delay_s=0.002
            )
            service = BackboneService(ServiceConfig(), chaos=chaos)
            try:
                await service.add_tenant("net", _positions())
                await service.get_backbone("net", deadline_s=5.0)
                behind = []

                async def watcher(k):
                    await service.wait_seq("net", k, deadline_s=60.0)
                    view = await service.get_backbone("net")
                    if view.seq < k or view.stale:
                        behind.append(k)

                watchers = [
                    asyncio.create_task(watcher(k)) for k in range(1, 21)
                ]
                stream = _stream()
                for _ in range(4):
                    for upd in stream.take(5):
                        service.submit_nowait("net", upd)
                    await asyncio.sleep(0.001)
                await asyncio.gather(*watchers)
                assert behind == []
            finally:
                await service.close()

        asyncio.run(go())

    @pytest.mark.parametrize("journaled", [False, True])
    def test_crash_inside_a_queued_burst_recovers(self, tmp_path, journaled):
        async def go():
            service = BackboneService(
                ServiceConfig(
                    restart=_FAST_RESTART,
                    data_dir=tmp_path if journaled else None,
                    snapshot_every=3,
                ),
                chaos=ChaosSchedule(pinned={"t": 5}),
            )
            try:
                await service.add_tenant("t", _positions())
                for upd in _stream().take(10):
                    service.submit_nowait("t", upd)
                await service.wait_seq("t", 10, deadline_s=60.0)
                view = await service.get_backbone("t")
                assert view.seq == 10 and not view.stale
                stats = service.stats("t")
                # updates 1-4 survived the crash, 5 was requeued: each of
                # the ten landed exactly once
                assert stats["restarts"] == 1
                assert stats["seq"] == stats["applied"] == 10
                return service.state_digest("t")
            finally:
                await service.close()

        assert asyncio.run(go()) == asyncio.run(_clean_digest(10))


#: one coalesced batch with a join and a leave among moves and a drain
_CHURN_BURST = [
    Move(3, 40.0, 40.0),
    Leave(5),
    Drain(2, 7.5),
    Join(100, 55.0, 45.0, energy=80.0),
    Move(9, 20.0, 70.0),
    Leave(11),
]


def _replay_digest(updates) -> str:
    state = TenantState()
    state.seed_population(_positions())
    for upd in updates:
        state.apply(upd)
    return state.digest()


class TestChurnSplices:
    """Joins and leaves reach the delta pipeline as a splice of its cached
    state; only a fresh pipeline (new tenant, recovery, degraded
    recompute) starts cold."""

    def test_burst_with_join_and_leave_splices(self, tmp_path):
        async def go():
            service = BackboneService(ServiceConfig(data_dir=tmp_path))
            try:
                with obs.capture() as reg:
                    await service.add_tenant("t", _positions())
                    await service.get_backbone("t", deadline_s=5.0)
                    assert reg.counters["delta.cold_starts"] == 1
                    for upd in _CHURN_BURST:
                        service.submit_nowait("t", upd)
                    await service.wait_seq(
                        "t", len(_CHURN_BURST), deadline_s=60.0
                    )
                assert reg.counters["delta.splices"] >= 1
                assert reg.counters["delta.cold_starts"] == 1
                view = await service.get_backbone("t")
                assert view.seq == len(_CHURN_BURST) and not view.stale
                state = service._tenants["t"].state
                want = compute_cds(
                    state.adjacency, state.scheme, energy=state.energy
                )
                assert view.gateway_mask == want.gateway_mask
                return service.state_digest("t")
            finally:
                await service.close()

        assert asyncio.run(go()) == _replay_digest(_CHURN_BURST)

    def test_recovery_starts_a_fresh_pipeline_cold(self, tmp_path):
        async def go():
            service = BackboneService(
                ServiceConfig(restart=_FAST_RESTART, data_dir=tmp_path),
                chaos=ChaosSchedule(pinned={"t": 4}),
            )
            try:
                with obs.capture() as reg:
                    await service.add_tenant("t", _positions())
                    for upd in _CHURN_BURST:
                        await service.submit("t", upd)
                    await service.wait_seq(
                        "t", len(_CHURN_BURST), deadline_s=60.0
                    )
                assert service.stats("t")["restarts"] == 1
                assert reg.counters["service.recoveries"] == 1
                # the tenant's first publish, then the recovered one
                assert reg.counters["delta.cold_starts"] == 2
                return service.state_digest("t")
            finally:
                await service.close()

        assert asyncio.run(go()) == _replay_digest(_CHURN_BURST)

    def test_failed_recompute_starts_a_fresh_pipeline_cold(self):
        async def go():
            service = BackboneService(ServiceConfig())
            try:
                await service.add_tenant("t", _positions())
                await service.get_backbone("t", deadline_s=5.0)

                class _ExplodingPipeline:
                    def compute(self, graph, energy):
                        raise RuntimeError("pipeline bug")

                service._tenants["t"].pipeline = _ExplodingPipeline()
                with obs.capture() as reg:
                    await service.submit("t", _CHURN_BURST[0])
                    await service.wait_seq("t", 1, deadline_s=5.0)
                    assert "delta.cold_starts" not in reg.counters
                    await service.submit("t", _CHURN_BURST[1])
                    await service.wait_seq("t", 2, deadline_s=5.0)
                assert reg.counters["delta.cold_starts"] == 1
                assert not (await service.get_backbone("t")).stale
            finally:
                await service.close()

        asyncio.run(go())

    def test_timed_out_recompute_starts_a_fresh_pipeline_cold(self):
        async def go():
            service = BackboneService(ServiceConfig(recompute_timeout_s=0.25))
            try:
                await service.add_tenant("t", _positions())
                await service.get_backbone("t", deadline_s=5.0)

                class _StuckPipeline:
                    def compute(self, graph, energy):
                        time.sleep(1.0)
                        raise RuntimeError("never published")

                ctx = service._tenants["t"]
                ctx.pipeline = _StuckPipeline()
                with obs.capture() as reg:
                    await service.submit("t", _CHURN_BURST[0])
                    await service.wait_seq("t", 1, deadline_s=5.0)
                    assert reg.counters["service.recompute_timeouts"] == 1
                    await service.submit("t", _CHURN_BURST[1])
                    await service.wait_seq("t", 2, deadline_s=5.0)
                assert reg.counters["delta.cold_starts"] == 1
                assert not (await service.get_backbone("t")).stale
            finally:
                await service.close()

        asyncio.run(go())


class TestOverloadAndDeadlines:
    def test_nowait_sheds_at_high_water(self):
        async def go():
            service = BackboneService(ServiceConfig(queue_high_water=4))
            try:
                await service.add_tenant("net", _positions())
                # never yield: the maintenance task cannot drain the queue
                stream = _stream()
                for upd in stream.take(4):
                    service.submit_nowait("net", upd)
                with pytest.raises(ServiceOverloaded) as exc:
                    service.submit_nowait("net", stream.take(1)[0])
                assert exc.value.queued == 4
                assert service.stats("net")["shed"] == 1
            finally:
                await service.close()

        asyncio.run(go())

    def test_blocking_submit_applies_backpressure(self):
        async def go():
            # a 2-deep queue forces submit() to wait for drain repeatedly;
            # the drive still lands every update
            service = BackboneService(ServiceConfig(queue_high_water=2))
            try:
                await service.add_tenant("net", _positions())
                await _drive(service, "net", 30)
                assert service.stats("net")["seq"] == 30
                assert service.stats("net")["shed"] == 0
            finally:
                await service.close()

        asyncio.run(go())

    def test_wait_seq_deadline_is_typed(self):
        async def go():
            service = BackboneService(ServiceConfig())
            try:
                await service.add_tenant("net", _positions())
                with pytest.raises(DeadlineExceeded) as exc:
                    await service.wait_seq("net", 1, deadline_s=0.02)
                assert exc.value.tenant == "net"
            finally:
                await service.close()

        asyncio.run(go())


class TestGracefulDegradation:
    def test_rejected_publish_keeps_serving_the_stale_view(self):
        async def go():
            service = BackboneService(ServiceConfig())
            try:
                await service.add_tenant("net", _LINE)
                good = await service.get_backbone("net", deadline_s=5.0)

                class _BrokenPipeline:
                    def compute(self, adj, energy):
                        from types import SimpleNamespace

                        return SimpleNamespace(gateway_mask=0)

                ctx = service._tenants["net"]
                ctx.pipeline = _BrokenPipeline()
                with pytest.raises(InvariantViolation, match="refusing"):
                    await service._recompute_and_publish(ctx)
                view = await service.get_backbone("net")
                assert view.stale  # degraded, but still the verified mask
                assert view.gateway_mask == good.gateway_mask
                assert ctx.counters["rejected_publishes"] == 1
            finally:
                await service.close()

        asyncio.run(go())

    def test_recompute_crash_degrades_without_killing_the_task(self):
        async def go():
            service = BackboneService(ServiceConfig())
            try:
                await service.add_tenant("net", _LINE)
                await service.get_backbone("net", deadline_s=5.0)

                class _ExplodingPipeline:
                    def compute(self, adj, energy):
                        raise RuntimeError("pipeline bug")

                ctx = service._tenants["net"]
                ctx.pipeline = _ExplodingPipeline()
                await service.submit("net", Move(0, 1.0, 50.0))
                await service.wait_seq("net", 1, deadline_s=5.0)
                # the update applied, the publish degraded, a *fresh*
                # pipeline replaced the broken one
                stats = service.stats("net")
                assert stats["seq"] == 1
                assert stats["recompute_failures"] == 1
                assert (await service.get_backbone("net")).stale
                assert not isinstance(ctx.pipeline, _ExplodingPipeline)
            finally:
                await service.close()

        asyncio.run(go())

    def test_recompute_timeouts_degrade_to_stale(self):
        async def go():
            chaos = ChaosSchedule(
                FaultPlan(seed=5, delay=0.99), base_delay_s=0.05
            )
            service = BackboneService(
                ServiceConfig(
                    recompute_timeout_s=0.01, restart=_FAST_RESTART
                ),
                chaos=chaos,
            )
            try:
                await service.add_tenant("net", _LINE)
                await service.submit("net", Move(0, 1.0, 50.0))
                await service.wait_seq("net", 1, deadline_s=10.0)
                stats = service.stats("net")
                # every recompute overran its budget: updates still applied,
                # nothing was ever published
                assert stats["seq"] == 1
                assert stats["recompute_timeouts"] >= 1
                assert stats["published_seq"] is None
                with pytest.raises(DeadlineExceeded):
                    await service.get_backbone("net", deadline_s=0.05)
            finally:
                await service.close()

        asyncio.run(go())


class TestQuarantine:
    def test_escalation_refuses_updates_but_serves_stale(self):
        async def go():
            chaos = ChaosSchedule(pinned={"net": 1})
            service = BackboneService(
                ServiceConfig(
                    restart=RestartPolicy(
                        base_delay_s=0.0, max_delay_s=0.0, jitter=0.0,
                        max_failures=1,
                    )
                ),
                chaos=chaos,
            )
            try:
                await service.add_tenant("net", _LINE)
                await service.get_backbone("net", deadline_s=5.0)
                await service.submit("net", Move(0, 1.0, 50.0))
                with pytest.raises(TenantQuarantinedError):
                    await service.wait_seq("net", 1, deadline_s=5.0)
                assert service.stats("net")["quarantined"]
                # updates refused, queries degrade to the stale baseline
                with pytest.raises(TenantQuarantinedError):
                    service.submit_nowait("net", Move(0, 2.0, 50.0))
                view = await service.get_backbone("net")
                assert view.stale and view.seq == 0
            finally:
                await service.close()

        asyncio.run(go())


class TestCrashRecovery:
    def test_pinned_crash_without_journal_requeues_and_converges(self):
        async def go():
            chaos = ChaosSchedule(pinned={"t": 13})
            service = BackboneService(
                ServiceConfig(restart=_FAST_RESTART), chaos=chaos
            )
            try:
                await service.add_tenant("t", _positions())
                await _drive(service, "t", 30)
                stats = service.stats("t")
                assert stats["seq"] == 30
                assert stats["restarts"] == 1
                return service.state_digest("t")
            finally:
                await service.close()

        digest = asyncio.run(go())
        assert digest == asyncio.run(_clean_digest(30))

    def test_pinned_crash_with_journal_recovers_bit_identical(self, tmp_path):
        async def go():
            chaos = ChaosSchedule(pinned={"t": 13})
            service = BackboneService(
                ServiceConfig(
                    restart=_FAST_RESTART,
                    data_dir=tmp_path,
                    snapshot_every=5,
                ),
                chaos=chaos,
            )
            try:
                await service.add_tenant("t", _positions())
                await _drive(service, "t", 30)
                assert service.stats("t")["restarts"] == 1
                return service.state_digest("t")
            finally:
                await service.close()

        digest = asyncio.run(go())
        assert digest == asyncio.run(_clean_digest(30))

    def test_service_restart_resumes_from_the_journal(self, tmp_path):
        cfg = ServiceConfig(data_dir=tmp_path, snapshot_every=10)

        async def first() -> str:
            service = BackboneService(cfg)
            try:
                await service.add_tenant("t", _positions())
                await _drive(service, "t", 20)
                return service.state_digest("t")
            finally:
                await service.close()

        async def second() -> str:
            service = BackboneService(cfg)
            try:
                # the journal wins over the seed population
                assert await service.add_tenant("t", _positions()) == 20
                stream = _stream()
                stream.skip(20)
                for upd in stream.take(10):
                    await service.submit("t", upd, deadline_s=60.0)
                await service.wait_seq("t", 30, deadline_s=60.0)
                return service.state_digest("t")
            finally:
                await service.close()

        mid = asyncio.run(first())
        assert mid == asyncio.run(_clean_digest(20))
        assert asyncio.run(second()) == asyncio.run(_clean_digest(30))

    def test_corrupt_newest_snapshot_recovers_from_older_generation(
        self, tmp_path
    ):
        cfg = ServiceConfig(data_dir=tmp_path, snapshot_every=5)

        async def first() -> str:
            service = BackboneService(cfg)
            try:
                await service.add_tenant("t", _positions())
                await _drive(service, "t", 12)
                return service.state_digest("t")
            finally:
                await service.close()

        digest = asyncio.run(first())
        # bit-rot the newest snapshot: the checksum must catch it and
        # recovery must fall back to generation 5 + WAL replay
        from repro.service.chaos import corrupt_snapshot

        corrupt_snapshot(tmp_path / "t" / "snapshot-000000000010.json")

        async def second() -> tuple[int, str]:
            service = BackboneService(cfg)
            try:
                seq = await service.add_tenant("t", _positions())
                return seq, service.state_digest("t")
            finally:
                await service.close()

        seq, recovered = asyncio.run(second())
        assert seq == 12
        assert recovered == digest

    def test_seeded_chaos_storm_still_converges(self, tmp_path):
        # probabilistic crash injection on both sides of the WAL append:
        # supervised restarts + recovery must still land the exact state
        async def go() -> tuple[str, int]:
            chaos = ChaosSchedule(FaultPlan(seed=31, loss=0.12))
            service = BackboneService(
                ServiceConfig(
                    restart=_FAST_RESTART, data_dir=tmp_path, snapshot_every=7
                ),
                chaos=chaos,
            )
            try:
                await service.add_tenant("t", _positions())
                await _drive(service, "t", 40, deadline_s=120.0)
                return service.state_digest("t"), len(chaos.events)
            finally:
                await service.close()

        digest, injected = asyncio.run(go())
        assert injected > 0, "the storm must actually inject crashes"
        assert digest == asyncio.run(_clean_digest(40))
