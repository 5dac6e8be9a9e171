"""What the benchmark measures: workloads, metrics and the layer map.

Everything ``BENCHMARK.json`` says is derived from this module (see
``python3 perfbench/run.py --manifest``), so the manifest, the runner and
the steadiness report cannot drift apart.  Every workload keeps node
density constant (``side = 100 * sqrt(N / 100)``,
``repro.graphs.generators.scaled_side``): the mean degree stays fixed and
N changes only the scale of the work.
"""

from __future__ import annotations

RUN_SECONDS = 20

#: name -> parameters, one-line reason, and the layer whose self time the
#: traced run must find dominant (with the minimum share it must reach).
#: A run measures ``max(1, round(seconds / nominal_unit_s))`` units.
WORKLOADS: dict[str, dict] = {
    "fig11_n100": {
        "why": "the paper's own experiment: one Figure-11 per-gateway cell, "
        "5 schemes x 10 trials, many small delta-backend trials plus "
        "checkpoint I/O",
        "params": {
            "entry": "run_lifespan_figure('fixed', n_values=[100], trials=10,"
            " parallel=False, checkpoint_dir=<temp>)",
            "n_hosts": 100, "side": 100.0, "trials": 10,
            "schemes": ["nr", "id", "nd", "el1", "el2"],
            "drain_model": "fixed", "backend": "scalar (delta for N >= 48)",
            "unit": "one cell; unit r uses root seed SeedSequence([seed, r])",
            "nominal_unit_s": 5.0,
            "samples": "one update sample per trial (its mean interval), "
            "50 per cell",
        },
        "dominant": ("core", 0.5),
    },
    "lifespan_n4000": {
        "why": "dense stateless engine at scale: one el2 lifespan at N=4000 "
        "on backend='vectorized', Rule-2 triples dominate; delta and the "
        "service are bypassed",
        "params": {
            "n_hosts": 4000, "scheme": "el2", "stability": 0.9,
            "drain_model": "fixed", "initial_energy": 30.0,
            "backend": "vectorized",
            "unit": "one trial; unit r uses seed SeedSequence([seed, r])",
            "nominal_unit_s": 5.0,
            "samples": "one update sample per interval, ~15 per trial",
        },
        "dominant": ("core", 0.8),
    },
    "sparse_n10k": {
        "why": "the only tier that reaches 100k nodes: one el2 lifespan at "
        "N=10000 on the incremental sparse backend, where memory and the "
        "cold first call matter",
        "params": {
            "n_hosts": 10000, "scheme": "el2", "stability": 0.9,
            "drain_model": "fixed", "initial_energy": 12.0,
            "backend": "sparse", "incremental": True,
            "unit": "one trial; unit r uses seed SeedSequence([seed, r])",
            "nominal_unit_s": 8.0,
            "samples": "one update sample per interval, ~6 per trial",
        },
        "dominant": ("core", 0.8),
    },
    "service_n1000": {
        "why": "the backbone service: four journaled N=1000 tenants driven "
        "in turn, bursts of updates for capacity alternating with an open "
        "loop of 6 updates/s beside 200 queries/s",
        "params": {
            "hosts": 1000, "tenants": 4, "scheme": "el2",
            "service_backend": "delta",
            "journal": "temp data_dir", "snapshot_every": 25,
            "stream": "UpdateStream 70% move / 20% drain / 10% churn",
            "burst_updates_per_run_second": 6,
            "open_loop_update_rate_per_s": 6.0,
            "open_loop_query_rate_per_s": 200.0,
            "open_loop_share_of_seconds": 2 / 3,
            "cycles": 12,
            "samples": "12 cycles of one burst (10 updates at 20 s) and one "
            "open-loop segment (7 updates at 20 s), cycle c on tenant c % 4; "
            "one publish latency per "
            "open-loop update, 200 queries per open-loop second",
        },
        "dominant": ("core", 0.6),
    },
}

#: end-to-end metrics: (name, unit, better, bound, definition).  Every
#: workload reports every one of them, so each is defined on every
#: workload.
END_TO_END: list[tuple[str, str, str, float, str]] = [
    ("setup_s", "s", "lower", 0.25,
     "median import of the program's modules plus median of several "
     "set-ups (network placement / service creation and its tenants' "
     "first verified publishes) before the first timed call"),
    ("updates_per_s", "1/s", "higher", 0.25,
     "backbone updates completed per second: fig11_n100 takes intervals "
     "per second of each cell's wall, median over cells; the other "
     "lifespans take the reciprocal of the interquartile mean of their "
     "interval wall times; the service takes all burst updates over the "
     "bursts' total time until published"),
    ("update_p50_ms", "ms", "lower", 0.25,
     "median time for one backbone update: lifespans time each interval "
     "(fig11_n100: each trial's mean interval), the service times an "
     "open-loop update from its due time until a published view covers it"),
    ("update_p75_ms", "ms", "lower", 0.25,
     "75th percentile of the same samples; p90 would sit on the boundary "
     "between service moves and the 10% churn updates and flip between "
     "the two clusters with the churn count of each seed"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "peak resident set of the workload's own fresh process at the end of "
     "the timed region"),
    ("ok_frac", "frac", "higher", 0.01,
     "verified operations / attempted operations, from checks run outside "
     "the timed region"),
]

_LIFESPANS = ("fig11_n100", "lifespan_n4000", "sparse_n10k")
_SERVICE_E2E = "updates_per_s, update_p50_ms, update_p75_ms"

#: per-layer metrics from the traced run: (name, unit, better, what it
#: measures, end-to-end metric it should move, workloads it moves it on).
#: On every other workload the prediction is no change.
PER_LAYER: list[tuple[str, str, str, str, str, tuple[str, ...]]] = [
    ("graphs.generate_s", "s", "lower", "random_connected_network",
     "setup_s", ("lifespan_n4000", "sparse_n10k")),
    ("graphs.apply_moves_s", "s", "lower", "AdHocNetwork.apply_moves",
     "updates_per_s", ("fig11_n100",)),
    ("graphs.apply_moves_calls", "count", "lower",
     "AdHocNetwork.apply_moves calls", "updates_per_s", ("fig11_n100",)),
    ("mobility.step_self_s", "s", "lower",
     "MobilityManager.step minus apply_moves", "updates_per_s",
     ("fig11_n100",)),
    ("mobility.frozen_intervals", "count", "lower",
     "intervals where every move retry disconnected the network",
     "updates_per_s", ("fig11_n100",)),
    ("energy.apply_s", "s", "lower", "EnergyAccountant.apply",
     "updates_per_s", ("fig11_n100",)),
    ("core.delta.compute_s", "s", "lower", "DeltaCDSPipeline.compute",
     "updates_per_s; on the service also update_p50_ms, update_p75_ms",
     ("fig11_n100", "service_n1000")),
    ("core.delta.calls", "count", "lower", "DeltaCDSPipeline.compute calls",
     "updates_per_s", ("fig11_n100", "service_n1000")),
    ("core.delta.short_circuits", "count", "higher",
     "obs delta.short_circuit", "updates_per_s",
     ("fig11_n100", "service_n1000")),
    ("core.vectorized.compute_s", "s", "lower",
     "VectorizedCDSPipeline.compute", "updates_per_s", ("lifespan_n4000",)),
    ("core.sparse_delta.compute_s", "s", "lower",
     "IncrementalSparseCDSPipeline.compute, all calls",
     "updates_per_s, peak_rss_mb", ("sparse_n10k",)),
    ("core.sparse_delta.first_compute_s", "s", "lower",
     "IncrementalSparseCDSPipeline.compute, first call per pipeline",
     "updates_per_s, peak_rss_mb; setup_s if work moves into it",
     ("sparse_n10k",)),
    ("core.sparse_delta.dirty_frac", "frac", "lower",
     "obs sdelta.dirty_nodes / (dirty_nodes + reused_nodes)",
     "updates_per_s", ("sparse_n10k",)),
    ("core.rule2_rounds", "count", "lower",
     "obs vcds.rounds + scds.rounds + rule2 round spans",
     "updates_per_s", _LIFESPANS),
    ("core.edges", "count", "lower", "obs vcds.edges + scds.edges",
     "updates_per_s", ("lifespan_n4000", "sparse_n10k")),
    ("simulation.interval_p50_ms", "ms", "lower", "run_interval, median",
     "update_p50_ms", _LIFESPANS),
    ("simulation.interval_p90_ms", "ms", "lower", "run_interval, p90",
     "update_p75_ms", _LIFESPANS),
    ("simulation.self_s", "s", "lower",
     "LifespanSimulator.run and run_interval minus their children",
     "updates_per_s", _LIFESPANS),
    ("exec.self_s", "s", "lower",
     "SweepExecutor.run minus children (under 1% today, so an exec-only "
     "change cannot show a gain)", "updates_per_s", ("fig11_n100",)),
    ("exec.checkpoint_append_s", "s", "lower", "CheckpointStore.append",
     "updates_per_s", ("fig11_n100",)),
    ("exec.checkpoint_records", "count", "lower",
     "CheckpointStore.append calls", "updates_per_s", ("fig11_n100",)),
    ("service.apply_s", "s", "lower", "TenantState.apply",
     _SERVICE_E2E, ("service_n1000",)),
    ("service.wal_append_s", "s", "lower", "TenantJournal.append",
     _SERVICE_E2E, ("service_n1000",)),
    ("service.snapshot_s", "s", "lower", "TenantJournal.snapshot",
     _SERVICE_E2E, ("service_n1000",)),
    ("service.recompute_s", "s", "lower", "obs service.recompute_s",
     _SERVICE_E2E, ("service_n1000",)),
    ("service.verify_s", "s", "lower", "BackboneChecker.check",
     _SERVICE_E2E, ("service_n1000",)),
    ("service.publishes_per_update", "frac", "lower",
     "obs service.publishes / service.updates_applied; coalescing lowers "
     "it, which should move burst updates_per_s and little at 12/s",
     "updates_per_s", ("service_n1000",)),
    ("service.backlog_max", "count", "lower",
     "largest sampled stats()['queued'] in the open loop",
     "update_p75_ms", ("service_n1000",)),
    ("service.query_p99_ms", "ms", "lower",
     "open-loop query latency from due time, p99 over >= 1000 queries",
     "update_p75_ms (both follow how long a recompute holds the loop)",
     ("service_n1000",)),
    ("service.gen_late_p99_ms", "ms", "lower",
     "how late the open-loop generators ran, p99", "none (load health)",
     ("service_n1000",)),
    ("setup.import_s", "s", "lower", "median import of the program's modules",
     "setup_s", _LIFESPANS + ("service_n1000",)),
    ("obs.trace_overhead_frac", "frac", "lower",
     "traced wall / untraced wall - 1 over the same inputs",
     "none (end-to-end runs are untraced)", ()),
    ("trace.dominant_share", "frac", "higher",
     "self-time share of the workload's predicted dominant layer",
     "none (checks the prediction)", ()),
    ("trace.dominant_ok", "count", "higher",
     "1 when the predicted dominant layer reaches its share, else 0",
     "none (checks the prediction)", ()),
]


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": w["why"]} for name, w in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b, *_ in PER_LAYER
        ],
    }

