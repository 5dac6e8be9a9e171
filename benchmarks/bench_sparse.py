"""Sparse streaming CDS engine: equivalence smoke + the N=100k point.

The sparse engine (:mod:`repro.core.sparse`) is the scale path: CSR
adjacency, per-connected-component decomposition, and chunked streaming
kernels that never allocate an ``n``-bit row — built for N = 100k..1M
where the dense packed batch (N² bits per element) caps out.

pytest mode times the engine at N = 1024/4096 against the dense batch
engine on identical graphs (groups ``sparse-engine``) and pins
bit-identity.  Script modes mirror ``bench_vectorized.py``::

    python benchmarks/bench_sparse.py --smoke     # CI equivalence gate
    python benchmarks/bench_sparse.py --record    # N=100k timing point

``--smoke`` asserts sparse == scratch == vectorized masks + PruneStats
over a seeded grid: word-boundary sizes, disconnected multi-component
batches, a forced-CSR tier (``dense_cutoff=2``) on both of its membership
probes (packed word rows, and sorted edge keys under a budget too small
for the rows), a tiny memory budget, and a round-heavy Rule-2 input
(``K_130`` minus a perfect matching); its last case, ``[100k memory]``,
runs one density-scaled N = 100k el2 interval on the incremental sparse
backend and fails above ``MEMORY_SMOKE_LIMIT_MB`` of process peak RSS.
``--record`` builds an
N = 100k (default; ``--hosts`` scales) unit-disk graph straight from
positions, runs one full interval per scheme under ``tracemalloc``,
and merges latency + peak memory into ``BENCH_pipeline.json`` under
``extra.sparse_100k`` (read-modify-write — the pytest session owns the
rest of the file) and appends the headline numbers to
``BENCH_trajectory.json``.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # plain-script mode without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from repro.core.cds import compute_cds
from repro.core.sparse import CSRBatch, SparseCDSEngine, compute_cds_sparse
from repro.core.vectorized import (
    BatchCDSEngine,
    compute_cds_batch,
    flags_to_masks,
    pack_batch,
)
from repro.graphs.adhoc import AdHocNetwork
from repro.graphs.generators import random_connected_network, scaled_side

RADIUS = 25.0
SCHEMES = ("nr", "id", "nd", "el1", "el2")
BIG_HOSTS = 100_000
#: --record asserts the tracemalloc peak stays under this multiple of
#: ``max(CSR bytes, chunk budget)``.  Measured behavior: each streamed
#: chunk materializes ~7-8 budget-sized int64 temporaries (mask
#: expansion, probe gathers, triple tables), so peak ≈ 8x the budget once
#: edges overflow one chunk; 16x covers that with headroom while still
#: catching a densification bug (a dense N=100k row table would be
#: ~1.25 GB per 64 MB of budget — far past the limit).
PEAK_OVER_BUDGET_LIMIT = 16.0


def _positions(n: int, seed: int) -> tuple[np.ndarray, float]:
    """Density-constant uniform placements (no connectivity resampling —
    at 100k that would never converge, and components are the point)."""
    side = scaled_side(n)
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, side, size=(n, 2)), side


def _graphs(seed: int):
    """The --smoke equivalence grid: adjacency batches + energies."""
    rng = np.random.default_rng(seed)
    batches = []
    # word-boundary sizes, connected
    for n in (63, 64, 65, 100):
        net = random_connected_network(
            n, side=scaled_side(n), radius=RADIUS, rng=rng
        )
        batches.append(([list(net.adjacency)], f"connected n={n}"))
    # disconnected multi-component batches (uniform, no resampling)
    for n in (90, 140):
        side = 2.2 * scaled_side(n)
        pos = rng.uniform(0.0, side, size=(n, 2))
        net = AdHocNetwork(pos, RADIUS, side=side)
        batches.append(([list(net.adjacency)], f"scattered n={n}"))
    # a stacked batch of mixed sizes is not possible (one n per batch),
    # but B > 1 is: three independent connected graphs of one size
    n = 72
    multi = [
        list(
            random_connected_network(
                n, side=scaled_side(n), radius=RADIUS, rng=rng
            ).adjacency
        )
        for _ in range(3)
    ]
    batches.append((multi, f"B=3 n={n}"))
    return batches


def _assert_equivalent(
    adjacencies, label: str, seed: int, **sparse_kwargs
) -> None:
    rng = np.random.default_rng(seed)
    n = len(adjacencies[0])
    energies = rng.uniform(50.0, 150.0, size=(len(adjacencies), n))
    for scheme in SCHEMES:
        for fixed_point in (False, True):
            sparse = compute_cds_sparse(
                adjacencies, scheme, energies=energies,
                fixed_point=fixed_point, **sparse_kwargs,
            )
            dense = compute_cds_batch(
                adjacencies, scheme, energies=energies,
                fixed_point=fixed_point,
            )
            for b, adj in enumerate(adjacencies):
                ref = compute_cds(
                    adj, scheme, energy=list(energies[b]),
                    fixed_point=fixed_point,
                )
                got = sparse[b]
                assert got.gateway_mask == ref.gateway_mask, (
                    f"{label} scheme={scheme} fp={fixed_point} b={b}: "
                    f"sparse mask != scratch"
                )
                assert got.stats == ref.stats, (
                    f"{label} scheme={scheme} fp={fixed_point} b={b}: "
                    f"sparse stats != scratch"
                )
                assert dense[b].gateway_mask == ref.gateway_mask, (
                    f"{label} scheme={scheme} fp={fixed_point} b={b}: "
                    f"vectorized mask != scratch"
                )


# -- pytest benches ----------------------------------------------------------


@pytest.fixture(scope="module", params=(1024, 4096))
def sized_graph(request):
    from conftest import bench_seed

    n = request.param
    pos, side = _positions(n, bench_seed() + n)
    net = AdHocNetwork(pos.copy(), RADIUS, side=side)
    energy = np.random.default_rng(bench_seed()).uniform(
        50.0, 150.0, size=(1, n)
    )
    return n, pos, [list(net.adjacency)], energy


@pytest.mark.benchmark(group="sparse-engine")
def test_interval_sparse(benchmark, sized_graph):
    n, pos, adjacencies, energy = sized_graph
    engine = SparseCDSEngine("el2")

    def run():
        csr = CSRBatch.from_positions(pos, RADIUS)
        return engine.run(csr, energy)

    flags, stats = benchmark(run)
    assert stats[0].final_size > 0


@pytest.mark.benchmark(group="sparse-engine")
def test_interval_dense(benchmark, sized_graph):
    n, pos, adjacencies, energy = sized_graph
    engine = BatchCDSEngine("el2")
    flags, stats = benchmark(lambda: engine.run(pack_batch(adjacencies), energy))
    assert stats[0].final_size > 0


def test_sparse_matches_dense(sized_graph):
    n, pos, adjacencies, energy = sized_graph
    csr = CSRBatch.from_positions(pos, RADIUS)
    sflags, sstats = SparseCDSEngine("el2").run(csr, energy)
    dflags, dstats = BatchCDSEngine("el2").run(pack_batch(adjacencies), energy)
    assert np.array_equal(sflags, dflags)
    assert list(sstats) == list(dstats)


# -- CI script modes ---------------------------------------------------------


def _smoke(seed: int) -> int:
    for adjacencies, label in _graphs(seed):
        _assert_equivalent(adjacencies, label, seed)
        print(f"equivalence ok: {label} x {len(SCHEMES)} schemes x fp")
    # force the streaming CSR tier (every component > cutoff=2) and a
    # tiny chunk budget; results must not move
    scattered, label = _graphs(seed)[4]
    _assert_equivalent(scattered, label + " [csr tier]", seed, dense_cutoff=2)
    _assert_equivalent(
        scattered, label + " [tiny budget]", seed,
        dense_cutoff=2, memory_budget_mb=0.25,
    )
    print("equivalence ok: forced CSR tier + 0.25 MB budget")
    # both cases above fit the big tier's packed word rows (n·⌈n/64⌉·8
    # bytes) in their budget; half that budget keeps the sorted-edge-key
    # probe in the grid
    n = len(scattered[0])
    rows_mb = len(scattered) * n * ((n + 63) // 64) * 8 / 2**20
    _assert_equivalent(
        scattered, label + " [key probe]", seed,
        dense_cutoff=2, memory_budget_mb=rows_mb / 2,
    )
    engine = SparseCDSEngine("id", memory_budget_mb=rows_mb / 2)
    assert not engine.word_rows_fit(len(scattered), n)
    print(f"equivalence ok: forced CSR tier on the key probe ({n} nodes)")
    # one hub of degree >= 200 in a constant-density field: its miss
    # masks are 4 words wide, so Rule-2 coverage takes the multi-word pass
    n, hub_deg = 400, 220
    pos, side = _positions(n, seed)
    hub = list(AdHocNetwork(pos, RADIUS, side=side).adjacency)
    rng = np.random.default_rng(seed)
    for u in rng.choice(np.arange(1, n), size=hub_deg, replace=False).tolist():
        hub[0] |= 1 << u
        hub[u] |= 1
    assert bin(hub[0]).count("1") >= 200
    _assert_equivalent([hub], f"hub n={n}", seed)
    _assert_equivalent([hub], f"hub n={n} [hub]", seed, dense_cutoff=2)
    print(f"equivalence ok: [hub] degree {bin(hub[0]).count('1')}, both tiers")
    # round-heavy Rule 2: K_130 minus a perfect matching; under nd every
    # degree ties, 349k triples fire and the local-minimum rounds commit
    # one non-adjacent pair each (63 rounds), so the worklist rounds of
    # both engines run long
    n = 130
    full = (1 << n) - 1
    k130 = [full & ~(1 << v) & ~(1 << (v ^ 1)) for v in range(n)]
    _assert_equivalent([k130], "K130 minus matching [k130]", seed, dense_cutoff=2)
    print("equivalence ok: [k130] round-heavy Rule 2, both engines")
    # from_positions == adjacency-derived CSR on one uniform field
    pos, side = _positions(600, seed)
    net = AdHocNetwork(pos.copy(), RADIUS, side=side)
    a = CSRBatch.from_positions(pos, RADIUS)
    b = CSRBatch.from_adjacency([list(net.adjacency)])
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.dst, b.dst)
    print("from_positions CSR == adjacency CSR (n=600)")
    # incremental-sparse equivalence grid: a churny multi-component
    # replay (jitter + teleports + drain) through the persistent-CSR
    # pipeline with shadow_check on — every interval is compared against
    # the scalar oracle (masks + PruneStats) inside the pipeline itself
    from repro.core.priority import SCHEMES as SCHEME_REGISTRY
    from repro.core.sparse_delta import IncrementalSparseCDSPipeline

    n = 120
    side = 2.2 * scaled_side(n)
    for scheme in SCHEMES:
        rng = np.random.default_rng(seed)
        net = AdHocNetwork(
            rng.uniform(0.0, side, size=(n, 2)), RADIUS, side=side
        )
        needs_energy = SCHEME_REGISTRY[scheme].needs_energy
        energy = np.full(n, 100.0)
        pipe = IncrementalSparseCDSPipeline(scheme, shadow_check=True)
        prev = None
        for k in range(6):
            if k:
                who = rng.choice(n, size=6, replace=False)
                net.positions[who] += rng.uniform(-6, 6, size=(6, 2))
                np.clip(net.positions, 0.0, side, out=net.positions)
                net.invalidate()
                net.move_host(
                    int(rng.integers(0, n)),
                    rng.uniform(0.0, side, size=2),
                )
            res = pipe.compute(
                net, energy=list(energy) if needs_energy else None
            )
            # unchanged interval: the cached result object must come back
            again = pipe.compute(
                net, energy=list(energy) if needs_energy else None
            )
            assert again is res, f"short-circuit broken ({scheme})"
            prev = res
            for v in range(n):
                energy[v] -= 3.0 if (prev.gateway_mask >> v) & 1 else 1.0
        print(f"incremental == scalar over churny replay: {scheme}")
    _smoke_memory(seed)
    print("smoke ok")
    return 0


#: ``[100k memory]`` fails above this process peak (``ru_maxrss``).  Bitmask
#: rows alone cost n²/8 = 1.25 GB at N = 100k; the edge-list topology and
#: the sparse engine peak near 0.3 GB.
MEMORY_SMOKE_LIMIT_MB = 1024.0


def _smoke_memory(seed: int) -> None:
    """[100k memory] one density-scaled el2 interval at N = 100k on the
    incremental sparse backend: set-up, compute, mobility step."""
    import resource

    from repro.simulation.config import SimulationConfig
    from repro.simulation.interval import run_interval
    from repro.simulation.lifespan import LifespanSimulator

    cfg = SimulationConfig(
        n_hosts=BIG_HOSTS, side=scaled_side(BIG_HOSTS), scheme="el2",
        drain_model="fixed", stability=0.9, initial_energy=12.0,
        backend="sparse",
    )
    t0 = time.perf_counter()
    sim = LifespanSimulator(cfg, rng=np.random.default_rng(seed))
    setup_s = time.perf_counter() - t0
    run_interval(
        sim.network, sim.scheme, sim.accountant, sim.mobility,
        interval_index=1, pipeline=sim.pipeline,
    )
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"[100k memory] set-up {setup_s:.2f} s, one interval "
        f"{time.perf_counter() - t0 - setup_s:.2f} s, peak {peak_mb:.0f} MB "
        f"(limit {MEMORY_SMOKE_LIMIT_MB:.0f} MB)"
    )
    assert not sim.network.has_adjacency_cache, "[100k memory] int rows built"
    assert peak_mb <= MEMORY_SMOKE_LIMIT_MB, (
        f"[100k memory] peak {peak_mb:.0f} MB > {MEMORY_SMOKE_LIMIT_MB:.0f} MB"
    )


def _bitmask_to_bool(mask: int, n: int) -> np.ndarray:
    raw = np.frombuffer(
        mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8
    )
    return np.unpackbits(raw, bitorder="little")[:n].astype(bool)


def _record_mobility(
    seed: int, output: str, hosts: int, intervals: int = 4
) -> int:
    """The N=100k *mobile* point: incremental vs full rebuild per interval.

    Regime x scheme cells, all recorded:

    * ``scattered`` (nd and el2) — 2.2x the density-constant side (the
      sparse engine's documented multi-component regime) with stability
      0.999, i.e. ~0.1% of hosts move per interval: the
      backbone-*maintenance* workload ISSUE 10 targets.  Under ``nd``
      clean components dominate (keys never consult energy), so the
      incremental pipeline recomputes a tiny dirty fraction — the
      headline cell.  Under ``el2`` the per-interval gateway drain
      re-keys most components (rotation is the *point* of the EL
      schemes), so reuse is limited to order-stable components — the
      honest energy-scheme cell.
    * ``dense`` (el2) — the density-constant arena (one giant
      component) with stability 0.9: any mover dirties the giant
      component, so the incremental win collapses to the avoided CSR
      rebuild.  Recorded so the headline number cannot be mistaken for
      a universal speedup.

    Every interval's incremental mask is asserted equal to the full
    rebuild's before its timing is trusted.
    """
    import json

    import perf_trajectory

    from repro.core.sparse_delta import IncrementalSparseCDSPipeline
    from repro.geometry.space import Region2D
    from repro.mobility.paper_walk import PaperWalk

    n = hosts
    cells = {}
    for regime, scheme, side_mult, stability in (
        ("scattered", "nd", 2.2, 0.999),
        ("scattered", "el2", 2.2, 0.999),
        ("dense", "el2", 1.0, 0.9),
    ):
        side = side_mult * scaled_side(n)
        rng = np.random.default_rng(seed)
        walk = PaperWalk(stability=stability)
        region = Region2D(side=side)
        cur = rng.uniform(0.0, side, size=(n, 2))
        frames = [cur.copy()]
        for _ in range(intervals):
            walk.step(cur, region, rng)
            frames.append(cur.copy())
        label = f"{regime}/{scheme}"
        print(
            f"[{label}] N={n} side={side:.0f} stability={stability} "
            f"{intervals} mobile intervals"
        )
        needs_energy = scheme in ("el1", "el2")

        # incremental replay (+ gateway drain, timing each compute)
        pipe = IncrementalSparseCDSPipeline(scheme)
        net = AdHocNetwork(frames[0].copy(), RADIUS, side=side)
        energy = np.full(n, 100.0)
        energies, masks, inc_times = [], [], []
        for f in frames:
            net.positions[:] = f
            net.invalidate()
            energies.append(energy.copy())
            t0 = time.perf_counter()
            res = pipe.compute(
                net, energy=energy if needs_energy else None
            )
            inc_times.append(time.perf_counter() - t0)
            masks.append(res.gateway_mask)
            gw = _bitmask_to_bool(res.gateway_mask, n)
            energy = energy - np.where(gw, 3.0, 1.0)

        # full rebuild replay over the identical (frames, energies)
        engine = SparseCDSEngine(scheme)
        full_times = []
        for i, f in enumerate(frames):
            t0 = time.perf_counter()
            csr = CSRBatch.from_positions(f, RADIUS)
            flags, _ = engine.run(
                csr, energies[i][None] if needs_energy else None
            )
            full_times.append(time.perf_counter() - t0)
            got = flags_to_masks(flags)[0]
            assert got == masks[i], (
                f"[{label}] interval {i}: incremental mask != full rebuild"
            )

        full_mean = float(np.mean(full_times))
        warm_mean = float(np.mean(inc_times[1:]))
        speedup = full_mean / warm_mean
        cells[f"{regime}_{scheme}"] = {
            "regime": regime,
            "scheme": scheme,
            "side": side,
            "stability": stability,
            "intervals": intervals,
            "full_interval_s": full_mean,
            "incremental_cold_s": inc_times[0],
            "incremental_warm_interval_s": warm_mean,
            "speedup_warm_vs_full": speedup,
        }
        print(
            f"[{label}] full {full_mean:.2f} s/interval, incremental "
            f"cold {inc_times[0]:.2f} s, warm {warm_mean:.2f} s/interval "
            f"-> {speedup:.1f}x"
        )

    record = {
        "n_hosts": n,
        "radius": RADIUS,
        "seed": seed,
        "cells": cells,
        "created_unix": time.time(),
    }
    if output != "-":
        out = Path(output)
        if out.exists():
            payload = json.loads(out.read_text(encoding="utf-8"))
        else:
            payload = {"schema": "repro-bench-pipeline/1", "benchmarks": []}
        payload.setdefault("extra", {})["sparse_100k_mobility"] = record
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"merged N={n} numbers into {out} (extra.sparse_100k_mobility)")
        sc = cells["scattered_nd"]
        perf_trajectory.append_run(
            f"sparse_mobility_warm_n{n}_nd",
            sc["incremental_warm_interval_s"], "s",
            meta={"seed": seed, "regime": "scattered"},
        )
        perf_trajectory.append_run(
            f"sparse_mobility_speedup_n{n}",
            sc["speedup_warm_vs_full"], "x",
            meta={"seed": seed, "regime": "scattered"},
        )
        print(f"appended trajectory runs to {perf_trajectory.TRAJECTORY_JSON}")
    print("record-mobility ok")
    return 0


def _record(seed: int, output: str, hosts: int) -> int:
    """The scale point: one full N=hosts interval per scheme, with peaks."""
    import json

    import perf_trajectory

    n = hosts
    print(f"building N={n} unit-disk CSR from positions ...")
    pos, side = _positions(n, seed)
    t0 = time.perf_counter()
    csr = CSRBatch.from_positions(pos, RADIUS)
    t_build = time.perf_counter() - t0
    print(
        f"csr: {csr.nnz} directed edges, {csr.nbytes / 1e6:.1f} MB, "
        f"built in {t_build:.2f}s"
    )
    energy = np.random.default_rng(seed).uniform(50.0, 150.0, size=(1, n))
    per_scheme = {}
    peak_bytes = 0
    for scheme in ("nd", "el2"):
        engine = SparseCDSEngine(scheme)
        tracemalloc.start()
        t0 = time.perf_counter()
        flags, stats = engine.run(csr, energy)
        dt = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak_bytes = max(peak_bytes, peak)
        per_scheme[scheme] = {
            "interval_s": dt,
            "peak_mb": peak / 1e6,
            "cds_size": int(stats[0].final_size),
        }
        print(
            f"  {scheme}: {dt:.2f} s/interval, peak {peak / 1e6:.0f} MB, "
            f"{stats[0].final_size} gateways"
        )
    from repro.core.vectorized import resolve_memory_budget_mb

    budget_bytes = resolve_memory_budget_mb(None) * 2**20
    denom = max(csr.nbytes, budget_bytes)
    peak_over_budget = peak_bytes / denom
    print(
        f"max peak / max(csr, budget) = {peak_over_budget:.1f}x "
        f"(csr {csr.nbytes / 1e6:.1f} MB, budget {budget_bytes / 1e6:.0f} MB)"
    )
    record = {
        "n_hosts": n,
        "side": side,
        "radius": RADIUS,
        "seed": seed,
        "csr_edges": int(csr.nnz),
        "csr_mb": csr.nbytes / 1e6,
        "csr_build_s": t_build,
        "memory_budget_mb": budget_bytes / 2**20,
        "per_scheme": per_scheme,
        "peak_over_budget": peak_over_budget,
        "peak_over_budget_limit": PEAK_OVER_BUDGET_LIMIT,
        "created_unix": time.time(),
    }
    if output != "-":
        out = Path(output)
        if out.exists():
            payload = json.loads(out.read_text(encoding="utf-8"))
        else:
            payload = {"schema": "repro-bench-pipeline/1", "benchmarks": []}
        payload.setdefault("extra", {})["sparse_100k"] = record
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"merged N={n} numbers into {out} (extra.sparse_100k)")
        perf_trajectory.append_run(
            f"sparse_interval_n{n}_el2", per_scheme["el2"]["interval_s"],
            "s", meta={"seed": seed, "peak_mb": per_scheme["el2"]["peak_mb"]},
        )
        perf_trajectory.append_run(
            f"sparse_peak_over_budget_n{n}", peak_over_budget, "x",
            meta={"seed": seed},
        )
        print(f"appended trajectory runs to {perf_trajectory.TRAJECTORY_JSON}")
    if peak_over_budget > PEAK_OVER_BUDGET_LIMIT:
        print(
            f"FAIL: peak memory is {peak_over_budget:.0f}x "
            f"max(csr, chunk budget) (limit {PEAK_OVER_BUDGET_LIMIT:.0f}x) "
            "— a kernel is densifying"
        )
        return 1
    print("record ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--smoke", action="store_true",
        help="assert sparse == vectorized == scratch (masks + stats) on "
        "the seeded grid, incl. forced-CSR tier and tiny budgets",
    )
    p.add_argument(
        "--record", action="store_true",
        help="measure the N=100k interval (latency + tracemalloc peak) "
        "and merge into the bench JSON under extra.sparse_100k",
    )
    p.add_argument(
        "--record-mobility", action="store_true",
        help="measure the N=100k mobile replay (incremental vs full "
        "rebuild) and merge into the bench JSON under "
        "extra.sparse_100k_mobility",
    )
    p.add_argument("--seed", type=int, default=2001)
    p.add_argument(
        "--hosts", type=int, default=BIG_HOSTS,
        help="scale point for --record (default 100000)",
    )
    p.add_argument(
        "--output", default="benchmarks/results/BENCH_pipeline.json",
        help="bench JSON to merge --record numbers into (under "
        "extra.sparse_100k); '-' skips writing",
    )
    args = p.parse_args(argv)
    if not (args.smoke or args.record or args.record_mobility):
        p.error(
            "run under pytest for timings, or pass --smoke / --record / "
            "--record-mobility"
        )
    rc = 0
    if args.smoke:
        rc = _smoke(args.seed)
    if rc == 0 and args.record:
        rc = _record(args.seed, args.output, args.hosts)
    if rc == 0 and args.record_mobility:
        rc = _record_mobility(args.seed, args.output, args.hosts)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
