"""Perf-trajectory gate: fail CI when a tier-1 micro-benchmark regresses.

The repo's benchmark artifacts are snapshots; this script is the *gate*.
It measures a small fixed set of micro-benchmarks (seconds-per-interval
of the vectorized and sparse engines, plus machine-independent speedup
ratios), compares each against the median of its recorded history in
``benchmarks/results/BENCH_trajectory.json`` (see
:mod:`perf_trajectory`), and exits non-zero when any measurement falls
outside the noise band.

Comparability rules — the part that makes this honest across machines:

* **ratio metrics** (speedups, relative engine costs) cancel the
  machine out, so they are gated against the full history, strictly;
* **absolute metrics** (wall-clock seconds) are only gated against runs
  recorded on the *same* platform + python signature; with no
  same-platform history they print ``UNGATED`` and pass instead of
  comparing apples to a different orchard.

``--check`` never writes: only ``--record`` appends to the trajectory
log, so a gate run on a new host leaves the checkout clean.

Noise band: ``REPRO_PERF_BAND`` (default 0.35) — a measurement may be up
to 35% worse than the recorded median before the gate trips.  Generous
on purpose: shared CI runners jitter, and the gate's job is catching
"the kernel got 2x slower", not 5% wobble.

Usage::

    python benchmarks/perf_gate.py --record   # measure + append history
    python benchmarks/perf_gate.py --check    # measure + gate (CI job)
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # plain-script mode without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

import perf_trajectory
from bench_vectorized import (
    RADIUS,
    STABILITY,
    _best_of,
    _replay_scratch,
    _replay_vectorized,
    _trajectory,
)

BAND_ENV = "REPRO_PERF_BAND"
DEFAULT_BAND = 0.35
#: history length the median is taken over (newest runs win).
HISTORY_WINDOW = 20


@dataclass(frozen=True)
class Metric:
    """One gated micro-benchmark."""

    name: str
    unit: str
    #: absolute wall-clock (same-platform comparisons only) vs
    #: machine-independent ratio (full-history comparisons).
    absolute: bool
    higher_is_better: bool
    description: str


METRICS = (
    Metric(
        "vec_interval_n1000_nd", "s", True, False,
        "vectorized engine, s/interval of an N=1000 nd replay",
    ),
    Metric(
        "vec_speedup_vs_scratch_n1000", "x", False, True,
        "scalar-scratch over vectorized replay time at N=1000",
    ),
    Metric(
        "sparse_interval_n4096_el2", "s", True, False,
        "sparse CSR engine, one N=4096 el2 interval (CSR build + run)",
    ),
    Metric(
        "sparse_over_vec_n4096", "x", False, False,
        "sparse interval cost over dense-vectorized cost at N=4096",
    ),
    Metric(
        "sparse_mobility_interval_ratio", "x", False, False,
        "incremental-sparse over full-rebuild replay cost of an N=4096 "
        "mobile el2 trajectory (persistent CSR + dirty components)",
    ),
)


def measure(seed: int) -> dict[str, float]:
    """Run every gated micro-benchmark once; returns name -> value."""
    from repro.core.sparse import CSRBatch, SparseCDSEngine
    from repro.core.vectorized import BatchCDSEngine, pack_batch
    from repro.graphs.adhoc import AdHocNetwork

    out: dict[str, float] = {}

    # -- vectorized vs scratch replay at N=1000 ---------------------------
    intervals = 4
    frames, side = _trajectory(1000, STABILITY, seed, intervals)
    t_vec = _best_of(2, _replay_vectorized, frames, side, "nd")
    t_scr = _best_of(2, _replay_scratch, frames, side, "nd")
    out["vec_interval_n1000_nd"] = t_vec / (intervals + 1)
    out["vec_speedup_vs_scratch_n1000"] = t_scr / t_vec

    # -- sparse vs dense single interval at N=4096 ------------------------
    n = 4096
    sframes, sside = _trajectory(n, STABILITY, seed + n, 0)
    pos = sframes[0]
    energy = np.random.default_rng(seed).uniform(50.0, 150.0, size=n)[None]
    sparse_engine = SparseCDSEngine("el2")
    dense_engine = BatchCDSEngine("el2")

    def sparse_interval():
        csr = CSRBatch.from_positions(pos, RADIUS)
        sparse_engine.run(csr, energy)

    adj = [list(AdHocNetwork(pos.copy(), RADIUS, side=sside).adjacency)]

    def dense_interval():
        dense_engine.run(pack_batch(adj), energy)

    t_sparse = _best_of(2, sparse_interval)
    t_dense = _best_of(2, dense_interval)
    out["sparse_interval_n4096_el2"] = t_sparse
    out["sparse_over_vec_n4096"] = t_sparse / t_dense

    # -- incremental vs full-rebuild sparse mobility at N=4096 ------------
    # the backbone-maintenance regime the incremental pipeline targets:
    # a scattered multi-component field (the sparse engine's documented
    # regime) where a handful of hosts move per interval, so clean
    # components dominate.  Both replays cover the identical frame
    # sequence, cold first frame included, so the ratio cancels the
    # machine out.  A dirty-component regression (everything recomputed)
    # pushes this toward/past 1.0.
    from repro.core.sparse_delta import IncrementalSparseCDSPipeline
    from repro.geometry.space import Region2D
    from repro.graphs.generators import scaled_side
    from repro.mobility.paper_walk import PaperWalk

    mob_side = 2.2 * scaled_side(n)
    mob_rng = np.random.default_rng(seed + 1)
    walk = PaperWalk(stability=0.99)
    region = Region2D(side=mob_side)
    cur = mob_rng.uniform(0.0, mob_side, size=(n, 2))
    mob_frames = [cur.copy()]
    for _ in range(6):
        walk.step(cur, region, mob_rng)
        mob_frames.append(cur.copy())
    energy_1d = energy[0]

    def full_replay():
        for f in mob_frames:
            sparse_engine.run(CSRBatch.from_positions(f, RADIUS), energy)

    def incremental_replay():
        pipe = IncrementalSparseCDSPipeline("el2")
        net = AdHocNetwork(mob_frames[0].copy(), RADIUS, side=mob_side)
        for f in mob_frames:
            net.positions[:] = f
            net.invalidate()
            pipe.compute(net, energy=energy_1d)

    t_full = _best_of(2, full_replay)
    t_inc = _best_of(2, incremental_replay)
    out["sparse_mobility_interval_ratio"] = t_inc / t_full
    return out


def _band() -> float:
    raw = os.environ.get(BAND_ENV)
    if raw is None:
        return DEFAULT_BAND
    band = float(raw)
    if band <= 0:
        raise ValueError(f"{BAND_ENV} must be positive, got {band}")
    return band


def record(seed: int, path: str | Path | None = None) -> int:
    values = measure(seed)
    for metric in METRICS:
        run = perf_trajectory.append_run(
            metric.name, values[metric.name], metric.unit,
            meta={"seed": seed, "gate": True}, path=path,
        )
        print(f"recorded {metric.name} = {run['value']:.4g} {metric.unit}")
    return 0


def check(seed: int, path: str | Path | None = None) -> int:
    band = _band()
    payload = perf_trajectory.load(path)
    values = measure(seed)
    failures = []
    for metric in METRICS:
        current = values[metric.name]
        history = perf_trajectory.series(
            payload, metric.name, same_platform_only=metric.absolute
        )[-HISTORY_WINDOW:]
        if not history:
            # nothing comparable on record: report and pass; only
            # --record writes the trajectory log
            scope = "same-platform " if metric.absolute else ""
            print(
                f"   UNGATED {metric.name} = {current:.4g} {metric.unit} "
                f"(no {scope}history)"
            )
            continue
        median = float(np.median(history))
        if metric.higher_is_better:
            ok = current >= median * (1.0 - band)
            limit = median * (1.0 - band)
        else:
            ok = current <= median * (1.0 + band)
            limit = median * (1.0 + band)
        verdict = "ok" if ok else "REGRESSION"
        print(
            f"{verdict:>10} {metric.name}: {current:.4g} {metric.unit} "
            f"vs median {median:.4g} over {len(history)} run(s) "
            f"(limit {limit:.4g}, band {band:.0%})"
        )
        if not ok:
            failures.append(metric)
    if failures:
        print(
            f"\nperf gate FAILED: {len(failures)} metric(s) regressed "
            f"beyond the {band:.0%} noise band — "
            + ", ".join(m.name for m in failures)
        )
        return 1
    print("\nperf gate ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--record", action="store_true",
        help="measure the gated micro-benchmarks and append them to the "
        "trajectory log",
    )
    p.add_argument(
        "--check", action="store_true",
        help="measure and gate against the recorded medians (CI mode, "
        "read-only); metrics with no comparable history pass ungated",
    )
    p.add_argument("--seed", type=int, default=2001)
    p.add_argument(
        "--trajectory", default=None, metavar="PATH",
        help=f"trajectory JSON (default {perf_trajectory.TRAJECTORY_JSON})",
    )
    args = p.parse_args(argv)
    if not (args.record or args.check):
        p.error("pass --record and/or --check")
    t0 = time.perf_counter()
    rc = 0
    if args.record:
        rc = record(args.seed, args.trajectory)
    if rc == 0 and args.check:
        rc = check(args.seed, args.trajectory)
    print(f"({time.perf_counter() - t0:.1f}s)")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
