"""Span tracing from outside the program, for the traced run only.

:class:`Tracer` replaces chosen public entry points with wrappers that
record ``(name, start, end, parent)`` spans in memory; :meth:`Tracer.
restore` puts the originals back.  Nothing here is imported by an
end-to-end run, so untraced numbers never pay for it.  A span's self time
is its duration minus the time its direct children cover; a layer's self
time is the sum over the spans whose name starts with ``<layer>.``.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np


class Tracer:
    """In-memory span recorder with reversible monkey-patching."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner: object, attr: str, name, *, first_name=None) -> None:
        """Trace ``owner.attr`` as span ``name``.

        ``first_name`` names the first call per bound instance differently
        (cold calls of stateful pipelines).
        """
        orig = getattr(owner, attr)
        tracer = self
        seen: set[int] = set()

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            label = name
            if first_name is not None and id(args[0]) not in seen:
                seen.add(id(args[0]))
                label = first_name
            idx = tracer.open(label)
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.close(idx)

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        dur = self.durations()
        out = dur.copy()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= dur[idx]
        return out

    def summary(self, window=None) -> dict[str, dict[str, float]]:
        """name -> {calls, total_s, self_s}, over spans starting in
        ``window = (t0, t1)`` when given."""
        dur, own = self.durations(), self.self_times()
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            if window and not window[0] <= self.starts[idx] < window[1]:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += float(dur[idx])
            row["self_s"] += float(own[idx])
        return out

    def durations_of(self, name: str) -> np.ndarray:
        dur = self.durations()
        return np.asarray(
            [dur[i] for i, n in enumerate(self.names) if n == name]
        )

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **extra,
            "summary": self.summary(),
            "spans": {
                "name": self.names,
                "start_s": [round(s - self.starts[0], 7) for s in self.starts]
                if self.starts else [],
                "dur_s": [round(float(d), 7) for d in self.durations()],
                "parent": self.parents,
            },
        }
        path.write_text(json.dumps(doc))


def install(tracer: Tracer) -> None:
    """Wrap the program's public entry points, one span name per layer."""
    from repro.core.delta import DeltaCDSPipeline
    from repro.core.sparse_delta import IncrementalSparseCDSPipeline
    from repro.core.vectorized import VectorizedCDSPipeline
    from repro.energy.accounting import EnergyAccountant
    from repro.exec.checkpoint import CheckpointStore
    from repro.exec.executor import SweepExecutor
    from repro.graphs.adhoc import AdHocNetwork
    from repro.mobility.manager import MobilityManager
    from repro.service.invariants import BackboneChecker
    from repro.service.state import TenantState
    from repro.service.wal import TenantJournal
    from repro.simulation import lifespan

    t = tracer
    # module-level functions are patched where the simulator looks them up
    t.wrap(lifespan, "random_connected_network", "graphs.generate")
    t.wrap(lifespan, "run_interval", "simulation.interval")
    t.wrap(lifespan.LifespanSimulator, "run", "simulation.run")
    t.wrap(AdHocNetwork, "apply_moves", "graphs.apply_moves")
    t.wrap(MobilityManager, "step", "mobility.step")
    t.wrap(EnergyAccountant, "apply", "energy.apply")
    t.wrap(DeltaCDSPipeline, "compute", "core.delta.compute")
    t.wrap(VectorizedCDSPipeline, "compute", "core.vectorized.compute")
    t.wrap(
        IncrementalSparseCDSPipeline, "compute", "core.sparse_delta.compute",
        first_name="core.sparse_delta.first_compute",
    )
    t.wrap(SweepExecutor, "run", "exec.sweep")
    t.wrap(CheckpointStore, "append", "exec.checkpoint_append")
    t.wrap(TenantState, "apply", "service.apply")
    t.wrap(TenantJournal, "append", "service.wal_append")
    t.wrap(TenantJournal, "snapshot", "service.snapshot")
    t.wrap(BackboneChecker, "check", "service.verify")


def layer_shares(tracer: Tracer, window: tuple[float, float]) -> dict[str, float]:
    """layer -> self time / wall of ``window``, over spans inside it."""
    wall = window[1] - window[0]
    shares: dict[str, float] = {}
    for name, row in tracer.summary(window).items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + row["self_s"] / wall
    return shares


def per_layer_metrics(tracer: Tracer, counters: dict[str, float]) -> dict:
    """The per-layer metric values common to every workload."""
    s = tracer.summary()

    def total(name: str) -> float:
        return s.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return s.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return s.get(name, {}).get("calls", 0)

    def pct_ms(name: str, q: float) -> float:
        d = tracer.durations_of(name)
        return float(np.percentile(d, q) * 1e3) if d.size else 0.0

    c = counters
    dirty = c.get("sdelta.dirty_nodes", 0.0)
    reused = c.get("sdelta.reused_nodes", 0.0)
    return {
        "graphs.generate_s": total("graphs.generate"),
        "graphs.apply_moves_s": total("graphs.apply_moves"),
        "graphs.apply_moves_calls": calls("graphs.apply_moves"),
        "mobility.step_self_s": own("mobility.step"),
        "energy.apply_s": total("energy.apply"),
        "core.delta.compute_s": total("core.delta.compute"),
        "core.delta.calls": calls("core.delta.compute"),
        "core.delta.short_circuits": c.get("delta.short_circuit", 0.0),
        "core.vectorized.compute_s": total("core.vectorized.compute"),
        "core.sparse_delta.compute_s": total("core.sparse_delta.compute")
        + total("core.sparse_delta.first_compute"),
        "core.sparse_delta.first_compute_s": total(
            "core.sparse_delta.first_compute"
        ),
        "core.sparse_delta.dirty_frac": dirty / (dirty + reused)
        if dirty + reused else 0.0,
        "core.rule2_rounds": c.get("vcds.rounds", 0.0)
        + c.get("scds.rounds", 0.0) + c.get("span:rule2", 0.0),
        "core.edges": c.get("vcds.edges", 0.0) + c.get("scds.edges", 0.0),
        "simulation.interval_p50_ms": pct_ms("simulation.interval", 50),
        "simulation.interval_p90_ms": pct_ms("simulation.interval", 90),
        "simulation.self_s": own("simulation.run") + own("simulation.interval"),
        "exec.self_s": own("exec.sweep") + own("exec.checkpoint_append"),
        "exec.checkpoint_append_s": total("exec.checkpoint_append"),
        "exec.checkpoint_records": calls("exec.checkpoint_append"),
        "service.apply_s": total("service.apply"),
        "service.wal_append_s": total("service.wal_append"),
        "service.snapshot_s": total("service.snapshot"),
        "service.recompute_s": c.get("service.recompute_s", 0.0),
        "service.verify_s": total("service.verify"),
        "service.publishes_per_update": c.get("service.publishes", 0.0)
        / c["service.updates_applied"]
        if c.get("service.updates_applied") else 0.0,
        # measured by the workloads themselves; zero where not applicable
        "mobility.frozen_intervals": 0,
        "service.backlog_max": 0,
        "service.query_p99_ms": 0.0,
        "service.gen_late_p99_ms": 0.0,
    }


def obs_counters(registry) -> dict[str, float]:
    """The obs registry's counters plus ``span:<leaf>`` span counts."""
    snap = registry.snapshot()
    out = dict(snap["counters"])
    for path, stats in snap["spans"].items():
        key = "span:" + path.rsplit("/", 1)[-1]
        out[key] = out.get(key, 0.0) + stats["count"]
    return out
