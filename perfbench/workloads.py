"""The four workloads: set-up, timed region, and the checks run after it.

Each ``run_*`` function takes a :class:`Ctx` and returns a :class:`Outcome`.
Inputs come only from ``ctx.seed``; the number of units a run measures
(cells, trials, updates) is fixed by ``ctx.seconds`` and a nominal unit
cost, so two commits measured with the same seed do the same work.  In a
traced run (``ctx.trace``) each workload first measures one unit untraced,
then the same unit again with :mod:`tracing` wrappers and ``repro.obs``
on; the per-layer numbers come from the second pass only.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spec import WORKLOADS

#: set-ups measured per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5


@dataclass
class Ctx:
    seed: int
    seconds: float
    trace: bool
    work_dir: Path

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work_dir))

    def unit_seed(self, r: int) -> int:
        """Root seed of unit ``r``: a pure function of (seed, r)."""
        return int(np.random.SeedSequence([self.seed, r]).generate_state(1)[0])


@dataclass
class Outcome:
    setup_samples: list[float]
    updates_per_s: float
    update_samples_s: list[float]
    peak_rss_mb: float
    attempted: int
    checks: int
    failed: int
    #: traced runs only
    per_layer: dict[str, float] = field(default_factory=dict)
    trace_doc: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def interquartile_mean(samples) -> float:
    """Mean of the middle half of ``samples``.

    Lifespan rates come from it: it averages half the samples, where a
    median reads one, yet drops the cold first interval of each trial
    and the slowest stalls.
    """
    a = np.sort(np.asarray(samples, dtype=float))
    cut = len(a) // 4
    return float(a[cut:len(a) - cut].mean())


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# -- tracing glue -------------------------------------------------------------


class Traced:
    """Context manager: tracer wrappers + a fresh obs registry."""

    def __enter__(self):
        from repro import obs

        import tracing

        self.tracer = tracing.Tracer()
        tracing.install(self.tracer)
        self._capture = obs.capture()
        self.registry = self._capture.__enter__()
        return self

    def __exit__(self, *exc):
        self._capture.__exit__(*exc)
        self.tracer.restore()

    def finish(self, workload: str, wall_untraced: float,
               window: tuple[float, float], extra: dict) -> tuple[dict, dict]:
        """Per-layer metrics and the trace document.

        ``window`` is the traced timed region (the same inputs took
        ``wall_untraced`` seconds untraced); layer shares are taken over it.
        """
        import tracing

        counters = tracing.obs_counters(self.registry)
        metrics = tracing.per_layer_metrics(self.tracer, counters)
        metrics.update(extra)
        wall_traced = window[1] - window[0]
        metrics["obs.trace_overhead_frac"] = wall_traced / wall_untraced - 1.0
        layer, floor = WORKLOADS[workload]["dominant"]
        shares = tracing.layer_shares(self.tracer, window)
        share = shares.get(layer, 0.0)
        metrics["trace.dominant_share"] = share
        metrics["trace.dominant_ok"] = 1 if share >= floor else 0
        doc = {
            "workload": workload,
            "dominant_layer": layer,
            "dominant_floor": floor,
            "layer_shares": shares,
            "obs_counters": counters,
        }
        return metrics, doc


# -- lifespans ----------------------------------------------------------------


class IntervalClock:
    """Duck-typed ``TraceRecorder``: stamps each interval, keeps its frame.

    ``LifespanSimulator.run`` calls ``record`` once per interval with the
    pre-drain positions and energy (copies) and the gateway mask, so the
    frames are exactly what the scalar oracle needs to re-check an interval.
    """

    def __init__(self) -> None:
        self.t_start = 0.0
        self.stamps: list[float] = []
        self.frames: list[tuple[np.ndarray, np.ndarray, int]] = []

    def record(self, interval, positions, energy, gateway_mask) -> None:
        self.stamps.append(time.perf_counter())
        self.frames.append((positions, energy, gateway_mask))

    def interval_times(self) -> list[float]:
        return list(np.diff([self.t_start] + self.stamps))


def _lifespan_config(workload: str):
    from repro.graphs.generators import scaled_side
    from repro.simulation.config import SimulationConfig

    p = WORKLOADS[workload]["params"]
    return SimulationConfig(
        n_hosts=p["n_hosts"],
        side=scaled_side(p["n_hosts"]),
        scheme=p["scheme"],
        drain_model=p["drain_model"],
        stability=p["stability"],
        initial_energy=p["initial_energy"],
        backend=p["backend"],
        incremental=p.get("incremental"),
    )


def _check_lifespan(cfg, clock: IntervalClock, sample: int | None) -> tuple[int, int]:
    """(checks, failed): final mask is a CDS; interval ``sample`` equals
    the scalar oracle's mask."""
    from repro.core.cds import compute_cds
    from repro.core.properties import verify_cds
    from repro.errors import InvariantViolation
    from repro.graphs.adhoc import AdHocNetwork

    def adjacency(pos):
        return AdHocNetwork(pos, cfg.radius, side=cfg.side).adjacency

    checks = failed = 0
    pos, _, mask = clock.frames[-1]
    checks += 1
    try:
        verify_cds(adjacency(pos), mask, context="final interval")
    except InvariantViolation:
        failed += 1
    if sample is not None:
        pos, energy, mask = clock.frames[sample]
        checks += 1
        oracle = compute_cds(adjacency(pos), cfg.scheme, energy=list(energy))
        failed += oracle.gateway_mask != mask
    return checks, failed


def _units(ctx: Ctx, workload: str) -> int:
    """Units a run measures: one when traced, else seconds / unit cost."""
    if ctx.trace:
        return 1
    nominal = WORKLOADS[workload]["params"]["nominal_unit_s"]
    return max(1, round(ctx.seconds / nominal))


def _run_lifespans(ctx: Ctx, workload: str) -> Outcome:
    from repro.simulation.lifespan import LifespanSimulator

    cfg = _lifespan_config(workload)

    def build(r: int):
        return LifespanSimulator(cfg, rng=np.random.default_rng(ctx.unit_seed(r)))

    sim, dt = timed(build, 0)
    setup_samples = [dt]

    def run_unit(sim) -> tuple[IntervalClock, float]:
        clock = IntervalClock()
        clock.t_start = time.perf_counter()
        sim.run(recorder=clock)
        return clock, time.perf_counter() - clock.t_start

    clocks, walls = [], []
    for r in range(_units(ctx, workload)):
        if r:
            sim = build(r)
        clock, wall = run_unit(sim)
        clocks.append(clock)
        walls.append(wall)
    rss = peak_rss_mb()
    # the other set-up samples come after the RSS reading, so spare
    # networks never count towards the workload's peak
    del sim
    for _ in range(SETUP_REPEATS - 1):
        setup_samples.append(timed(build, 0)[1])

    interval_s = [t for c in clocks for t in c.interval_times()]
    out = Outcome(
        setup_samples=setup_samples,
        updates_per_s=1.0 / interquartile_mean(interval_s),
        update_samples_s=interval_s,
        peak_rss_mb=rss,
        attempted=sum(len(c.frames) for c in clocks),
        checks=0,
        failed=0,
    )
    sample = ctx.seed % len(clocks[0].frames)
    for i, clock in enumerate(clocks):
        checks, failed = _check_lifespan(cfg, clock, sample if i == 0 else None)
        out.checks += checks
        out.failed += failed

    if ctx.trace:
        with Traced() as tr:
            sim = build(0)
            clock, wall = run_unit(sim)
        window = (clock.t_start, clock.t_start + wall)
        metrics, doc = tr.finish(workload, walls[0], window, {
            "mobility.frozen_intervals": sim.mobility.frozen_intervals,
        })
        out.per_layer, out.trace_doc = metrics, {"tracer": tr.tracer, **doc}
        out.checks += 1
        out.failed += clock.frames[-1][2] != clocks[0].frames[-1][2]
    return out


def run_lifespan_n4000(ctx: Ctx) -> Outcome:
    return _run_lifespans(ctx, "lifespan_n4000")


def run_sparse_n10k(ctx: Ctx) -> Outcome:
    return _run_lifespans(ctx, "sparse_n10k")


# -- Figure-11 cell -----------------------------------------------------------


def run_fig11_n100(ctx: Ctx) -> Outcome:
    from repro.analysis.experiments import run_lifespan_figure
    from repro.exec import CheckpointStore
    from repro.simulation.config import SimulationConfig
    from repro.simulation.lifespan import LifespanSimulator
    from repro.simulation.metrics import TrialMetrics
    from repro.simulation.rng import generator_for_trial

    p = WORKLOADS["fig11_n100"]["params"]

    def run_cell(root_seed: int):
        """One cell; returns (records, per-trial walls, cell wall)."""
        ckpt = ctx.fresh_dir("fig11-")
        stamps: list[tuple[str, int, float]] = []

        def progress(ev) -> None:
            stamps.append((ev.cell, ev.trial, time.perf_counter()))

        t0 = time.perf_counter()
        run_lifespan_figure(
            p["drain_model"], n_values=[p["n_hosts"]], trials=p["trials"],
            schemes=p["schemes"], root_seed=root_seed, parallel=False,
            checkpoint_dir=ckpt, progress=progress,
        )
        wall = time.perf_counter() - t0
        records = {
            (rec["cell"], rec["trial"]): rec
            for rec in CheckpointStore(ckpt).load().values()
        }
        walls = np.diff([t0] + [t for _, _, t in stamps])
        per_trial = [
            (records[(cell, trial)], float(w))
            for (cell, trial, _), w in zip(stamps, walls)
        ]
        return records, per_trial, wall

    # set-up is only the import here: placement happens per trial, inside
    # the timed call, exactly as a figure campaign pays it
    cells = []
    for r in range(_units(ctx, "fig11_n100")):
        cells.append((ctx.unit_seed(r), *run_cell(ctx.unit_seed(r))))
    rss = peak_rss_mb()

    rates, samples = [], []
    for _, records, per_trial, wall in cells:
        rates.append(sum(r["metrics"]["lifespan"] for r in records.values()) / wall)
        samples += [w / rec["metrics"]["lifespan"] for rec, w in per_trial]
    out = Outcome(
        setup_samples=[],
        updates_per_s=float(np.median(rates)),
        update_samples_s=samples,
        peak_rss_mb=rss,
        attempted=sum(
            r["metrics"]["lifespan"] for c in cells for r in c[1].values()
        ),
        checks=0,
        failed=0,
    )

    # re-run sampled trials on the scratch path: identical TrialMetrics
    pick = np.random.default_rng([ctx.seed, 11])
    for root_seed, records, _, _ in cells:
        keys = sorted(records)
        for i in pick.choice(len(keys), size=3, replace=False):
            cell, trial = keys[i]
            scheme = cell.rsplit("/", 1)[1]
            cfg = SimulationConfig(
                n_hosts=p["n_hosts"], scheme=scheme,
                drain_model=p["drain_model"], incremental=False,
            )
            sim = LifespanSimulator(cfg, rng=generator_for_trial(root_seed, trial))
            again = sim.run().metrics.to_dict()
            want = TrialMetrics.from_dict(records[(cell, trial)]["metrics"])
            out.checks += 1
            out.failed += again != want.to_dict()

    if ctx.trace:
        root_seed, records, _, wall_untraced = cells[0]
        with Traced() as tr:
            t0 = time.perf_counter()
            traced_records, _, _ = run_cell(root_seed)
            window = (t0, time.perf_counter())
        frozen = sum(
            r["metrics"]["frozen_intervals"] for r in traced_records.values()
        )
        metrics, doc = tr.finish(
            "fig11_n100", wall_untraced, window,
            {"mobility.frozen_intervals": frozen},
        )
        out.per_layer, out.trace_doc = metrics, {"tracer": tr.tracer, **doc}
        out.checks += 1
        out.failed += any(
            traced_records[k]["metrics"] != records[k]["metrics"]
            for k in records
        )
    return out


# -- service ------------------------------------------------------------------


async def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


class _Service:
    """A service instance holding the benchmark's tenants.

    Tenant ``i`` is placed and driven exactly as ``repro.service.driver``
    seeds tenant ``i`` of a run (``seed_positions`` / ``tenant_seed``).
    """

    def __init__(self, ctx: Ctx, tenants: int, hosts: int, side: float) -> None:
        self.ctx, self.hosts, self.side = ctx, hosts, side
        self.names = [f"t{i}" for i in range(tenants)]

    async def start(self) -> bool:
        """Create the tenants; True when every first publish is verified."""
        from repro.service.driver import seed_positions
        from repro.service.server import BackboneService, ServiceConfig

        p = WORKLOADS["service_n1000"]["params"]
        cfg = ServiceConfig(
            side=self.side, scheme=p["scheme"],
            snapshot_every=p["snapshot_every"],
            data_dir=self.ctx.fresh_dir("svc-"),
        )
        self.svc = BackboneService(cfg)
        ok = True
        for i, name in enumerate(self.names):
            await self.svc.add_tenant(
                name, seed_positions(self.ctx.seed, i, self.hosts, self.side)
            )
            view = await self.svc.get_backbone(name, deadline_s=60.0)
            ok &= view.seq == 0 and not view.stale
        return ok

    def stream(self, i: int):
        from repro.service.driver import tenant_seed
        from repro.service.updates import UpdateStream

        return UpdateStream(
            seed=tenant_seed(self.ctx.seed, i), n_initial=self.hosts,
            side=self.side,
        )

    async def burst(self, name: str, updates) -> float:
        """Submit ``updates`` at once; seconds until all are published."""
        target = self.svc.stats(name)["seq"] + len(updates)
        t0 = time.perf_counter()
        for upd in updates:
            self.svc.submit_nowait(name, upd)
        await self.svc.wait_seq(name, target, deadline_s=600.0)
        return time.perf_counter() - t0

    async def open_loop(self, name: str, updates, update_rate: float,
                        query_rate: float, duration_s: float) -> dict:
        """Updates and queries on fixed schedules, timed from due times.

        Update ``k`` is due at ``k / update_rate``, query ``j`` at
        ``j / query_rate``.  A watcher stamps the moment a published view
        covers each update.
        """
        svc = self.svc
        seq0 = svc.stats(name)["seq"]
        base = time.perf_counter() + 0.05
        due = [base + k / update_rate for k in range(len(updates))]
        res = {
            "publish_s": [], "publish_bad": 0, "query_s": [], "query_bad": 0,
            "late_s": [], "backlog": [],
        }

        async def updater() -> None:
            for k, upd in enumerate(updates):
                await _sleep_until(due[k])
                res["late_s"].append(time.perf_counter() - due[k])
                svc.submit_nowait(name, upd)
                res["backlog"].append(svc.stats(name)["queued"])

        async def watcher() -> None:
            for k in range(len(updates)):
                await svc.wait_seq(name, seq0 + k + 1, deadline_s=60.0)
                now = time.perf_counter()
                view = await svc.get_backbone(name)
                res["publish_s"].append(now - due[k])
                res["publish_bad"] += view.seq < seq0 + k + 1 or view.stale

        async def querier() -> None:
            for j in range(int(round(query_rate * duration_s))):
                t_due = base + j / query_rate
                await _sleep_until(t_due)
                res["late_s"].append(time.perf_counter() - t_due)
                view = await svc.get_backbone(name, deadline_s=1.0)
                res["query_s"].append(time.perf_counter() - t_due)
                res["query_bad"] += view.stale

        await asyncio.gather(updater(), watcher(), querier())
        return res

    async def close(self) -> None:
        await self.svc.close()


async def _service(ctx: Ctx) -> Outcome:
    from repro.graphs.generators import scaled_side
    from repro.service.driver import seed_positions
    from repro.service.state import TenantState

    p = WORKLOADS["service_n1000"]["params"]
    hosts, side = p["hosts"], scaled_side(p["hosts"])

    async def set_up() -> tuple[_Service, bool, float]:
        t0 = time.perf_counter()
        service = _Service(ctx, p["tenants"], hosts, side)
        ok = await service.start()
        return service, ok, time.perf_counter() - t0

    service, first_ok, dt = await set_up()
    setup_samples = [dt]

    # the run alternates capacity bursts with open-loop segments, so both
    # kinds of sample are spread over the whole run.  Capacity is taken
    # over all bursts together: a burst holds about a dozen updates, and
    # its share of cheap drains swings its own rate by half.  Cycle c
    # drives tenant c % tenants alone; a move's cost differs by some 12%
    # between placements, so one tenant would make the figures follow
    # the seed's single placement
    cycles, names = p["cycles"], service.names
    n_burst = max(1, round(
        p["burst_updates_per_run_second"] * ctx.seconds / cycles))
    rate = p["open_loop_update_rate_per_s"]
    n_open = max(1, round(
        rate * ctx.seconds * p["open_loop_share_of_seconds"] / cycles))
    streams = [service.stream(i) for i in range(len(names))]
    plan = [
        (c % len(names), streams[c % len(names)].take(n_burst),
         streams[c % len(names)].take(n_open))
        for c in range(cycles)
    ]

    burst_s = [await service.burst(names[0], plan[0][1])]
    traced = None
    if ctx.trace:
        # the untraced first burst above is the reference; the same burst
        # on a fresh service is traced, and the run continues on that one
        reference_s = burst_s.pop()
        await service.close()
        del service
        gc.collect()
        service = (await set_up())[0]
        traced = Traced()
    res: dict = {}
    with traced or contextlib.nullcontext():
        for c, (i, burst, open_) in enumerate(plan):
            if c or traced is not None:
                t_burst0 = time.perf_counter()
                burst_s.append(await service.burst(names[i], burst))
                if c == 0:
                    window = (t_burst0, time.perf_counter())
            seg = await service.open_loop(
                names[i], open_, rate, p["open_loop_query_rate_per_s"],
                n_open / rate,
            )
            for key, val in seg.items():
                res[key] = res.get(key, 0 if isinstance(val, int) else []) + val
    rss = peak_rss_mb()
    stats = [service.svc.stats(name) for name in names]
    digests = [service.svc.state_digest(name) for name in names]
    await service.close()
    del service
    # the other set-up samples come after the RSS reading, each on a
    # fresh service that is closed and collected before the next one
    for _ in range(SETUP_REPEATS - 1):
        gc.collect()
        spare, ok, dt = await set_up()
        setup_samples.append(dt)
        first_ok &= ok
        await spare.close()
        del spare

    # an unjournaled in-memory replay of each tenant's stream must land on
    # the service's state digest; degraded publishes count as failures
    failed = res["publish_bad"] + res["query_bad"] + sum(
        st["stale_publishes"] + st["rejected_publishes"]
        + st["recompute_timeouts"] + st["recompute_failures"] + st["shed"]
        for st in stats
    )
    for i in range(len(names)):
        updates = [u for j, b, o in plan if j == i for u in b + o]
        replay = TenantState(radius=25.0, side=side, scheme=p["scheme"])
        replay.seed_population(seed_positions(ctx.seed, i, hosts, side))
        for upd in updates:
            replay.apply(upd)
        if (replay.digest() != digests[i] or stats[i]["seq"] != len(updates)
                or not first_ok):
            failed += len(updates)
    updates = n_burst * cycles + n_open * cycles
    out = Outcome(
        setup_samples=setup_samples,
        updates_per_s=n_burst * cycles / sum(burst_s),
        update_samples_s=res["publish_s"],
        peak_rss_mb=rss,
        attempted=updates + len(res["query_s"]),
        checks=updates + len(res["query_s"]),
        failed=int(failed),
    )
    samples = {
        "burst_updates": n_burst * cycles, "open_loop_updates": n_open * cycles,
        "queries": len(res["query_s"]),
        "query_p99_ms": float(np.percentile(res["query_s"], 99) * 1e3),
        "gen_late_p99_ms": float(np.percentile(res["late_s"], 99) * 1e3),
        "backlog_max": max(res["backlog"]),
    }
    if ctx.trace:
        metrics, doc = traced.finish("service_n1000", reference_s, window, {
            "service.backlog_max": samples["backlog_max"],
            "service.query_p99_ms": samples["query_p99_ms"],
            "service.gen_late_p99_ms": samples["gen_late_p99_ms"],
        })
        out.per_layer, out.trace_doc = metrics, {"tracer": traced.tracer, **doc}
    out.trace_doc["samples"] = samples
    return out


def run_service_n1000(ctx: Ctx) -> Outcome:
    return asyncio.run(_service(ctx))


RUNNERS = {
    "fig11_n100": run_fig11_n100,
    "lifespan_n4000": run_lifespan_n4000,
    "sparse_n10k": run_sparse_n10k,
    "service_n1000": run_service_n1000,
}

#: modules each workload imports from the program (timed as ``import_s``)
IMPORTS = {
    "fig11_n100": ["repro", "repro.analysis.experiments", "repro.exec"],
    "lifespan_n4000": ["repro", "repro.simulation.lifespan"],
    "sparse_n10k": ["repro", "repro.simulation.lifespan"],
    "service_n1000": ["repro", "repro.service.server", "repro.service.driver"],
}


def cleanup(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
