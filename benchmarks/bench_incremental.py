"""Incremental delta-CDS pipeline vs the from-scratch path (not a figure).

Replays identical seeded mobility trajectories (the Figure-11 setup:
N = 100 hosts, 100x100 region, radius 25, paper walk) through both
per-interval pipelines:

* **incremental** — :meth:`AdHocNetwork.apply_moves` (grid-delta adjacency
  maintenance) + :class:`DeltaCDSPipeline` (dirty-set marking, cached rule
  engine, short-circuit on unchanged fingerprints);
* **scratch** — invalidate + snapshot + :func:`compute_cds`, exactly what
  the simulator did per interval before the delta pipeline existed.

Both paths see the same moves and the same per-interval energy drain, so
their gateway masks must be bit-identical (asserted on every replay that
collects masks).  pytest-benchmark times a fixed-length replay per scheme
at stability 0.9; ``test_speedup_summary`` additionally records best-of-k
per-scheme speedups, a speedup-vs-stability sweep, and the delta
pipeline's dirty-fraction counters into
``benchmarks/results/BENCH_pipeline.json`` (under ``"extra"``).

Timing methodology: the two paths are timed in fully separate replays
(never interleaved — alternating them pollutes the cached engine's memory
locality and understates the win) and each configuration takes the best
of ``k`` runs to suppress machine noise.

Also runnable as a plain script for CI::

    python benchmarks/bench_incremental.py --smoke

which asserts delta == scratch masks on a seeded 100-host trial for all
five schemes and fails if the incremental path is slower at stability 0.9.
It then replays service churn: one N = 1000 :class:`UpdateStream` tenant
(moves, drains, joins, leaves) driven through :class:`DeltaCDSPipeline`
with ``ids``, so membership changes are spliced.  Every mask must equal
:func:`compute_cds`, and a single-move compute must beat a cold compute
on the same state.  Its ``[grid patch]`` case replays 10 stability-0.9
steps at N = 2000, above the dense cutoff, so
:meth:`AdHocNetwork.apply_moves` takes its grid branch, plus one forced
:class:`MobilityManager` rollback; rows and changed masks must equal a
full rebuild.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # plain-script mode without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from repro.core.cds import compute_cds
from repro.core.delta import DeltaCDSPipeline
from repro.core.priority import scheme_by_name
from repro.geometry.space import Region2D
from repro.graphs import bitset
from repro.graphs.adhoc import AdHocNetwork
from repro.graphs.generators import random_connected_network
from repro.mobility.paper_walk import PaperWalk

N_HOSTS = 100
SIDE = 100.0
RADIUS = 25.0
#: enough to outlast any replay below (gateways drain 3/interval).
INITIAL_ENERGY = 2000.0
SCHEMES = ("nr", "id", "nd", "el1", "el2")
BENCH_INTERVALS = 100
STABILITY = 0.9


def _trajectory(
    stability: float, seed: int, intervals: int, n: int = N_HOSTS
) -> list[np.ndarray]:
    """Seeded per-interval position frames (frame 0 = initial placement)."""
    net = random_connected_network(n, side=SIDE, radius=RADIUS, rng=seed)
    region = Region2D(side=SIDE)
    walk = PaperWalk(stability=stability)
    rng = np.random.default_rng(seed + 1)
    pos = net.positions.copy()
    frames = [pos.copy()]
    for _ in range(intervals):
        walk.step(pos, region, rng)
        frames.append(pos.copy())
    return frames


def _drain(energy: np.ndarray, gateway_mask: int) -> None:
    """Deterministic drain (gateways 3, others 1) so EL keys keep rotating."""
    energy -= 1.0
    ids = bitset.ids_from_mask(gateway_mask)
    if ids:
        energy[np.asarray(ids, dtype=np.intp)] -= 2.0


def _replay_incremental(
    frames: list[np.ndarray], scheme_name: str, collect: bool = False
) -> list[int]:
    sch = scheme_by_name(scheme_name)
    net = AdHocNetwork(frames[0].copy(), RADIUS, side=SIDE)
    net.adjacency  # build the cache so apply_moves patches in place
    pipe = DeltaCDSPipeline(sch)
    energy = np.full(len(frames[0]), INITIAL_ENERGY)
    masks: list[int] = []
    for i, pos in enumerate(frames):
        if i:
            moved = np.flatnonzero(np.any(pos != net.positions, axis=1))
            net.positions[moved] = pos[moved]
            net.apply_moves(moved)
        cds = pipe.compute(
            net, energy=energy if sch.needs_energy else None
        )
        _drain(energy, cds.gateway_mask)
        if collect:
            masks.append(cds.gateway_mask)
    return masks


def _replay_scratch(
    frames: list[np.ndarray], scheme_name: str, collect: bool = False
) -> list[int]:
    sch = scheme_by_name(scheme_name)
    net = AdHocNetwork(frames[0].copy(), RADIUS, side=SIDE)
    energy = np.full(len(frames[0]), INITIAL_ENERGY)
    masks: list[int] = []
    for i, pos in enumerate(frames):
        if i:
            net.positions[:] = pos
            net.invalidate()
        cds = compute_cds(
            net.snapshot(),
            sch,
            energy=energy if sch.needs_energy else None,
        )
        _drain(energy, cds.gateway_mask)
        if collect:
            masks.append(cds.gateway_mask)
    return masks


def _assert_equivalent(frames: list[np.ndarray], scheme: str) -> None:
    inc = _replay_incremental(frames, scheme, collect=True)
    scr = _replay_scratch(frames, scheme, collect=True)
    assert inc == scr, (
        f"scheme {scheme}: incremental and scratch gateway masks diverged "
        f"at interval {next(i for i, (a, b) in enumerate(zip(inc, scr)) if a != b)}"
    )


def _best_of(k: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _dirty_counters(frames: list[np.ndarray], scheme: str) -> dict:
    """Run one instrumented incremental replay; return the delta.* counters."""
    from repro import obs

    with obs.capture() as reg:
        _replay_incremental(frames, scheme)
    c = reg.counters
    intervals = c.get("delta.intervals", 0.0)
    nodes = c.get("delta.nodes", 0.0)
    out = {
        k.removeprefix("delta."): v
        for k, v in sorted(c.items())
        if k.startswith("delta.")
    }
    out["dirty_fraction"] = (
        c.get("delta.dirty_marking", 0.0) / nodes if nodes else 0.0
    )
    out["changed_row_fraction"] = (
        c.get("delta.changed_rows", 0.0) / nodes if nodes else 0.0
    )
    out["short_circuit_fraction"] = (
        c.get("delta.short_circuit", 0.0) / intervals if intervals else 0.0
    )
    return out


def speedup_summary(
    seed: int, *, intervals: int = BENCH_INTERVALS, k: int = 3
) -> dict:
    """Per-scheme speedups at stability 0.9 + a stability sweep for el2."""
    frames = _trajectory(STABILITY, seed, intervals)
    per_scheme = {}
    for scheme in SCHEMES:
        _assert_equivalent(frames, scheme)
        t_inc = _best_of(k, _replay_incremental, frames, scheme)
        t_scr = _best_of(k, _replay_scratch, frames, scheme)
        per_scheme[scheme] = {
            "incremental_ms_per_interval": 1e3 * t_inc / (intervals + 1),
            "scratch_ms_per_interval": 1e3 * t_scr / (intervals + 1),
            "speedup": t_scr / t_inc,
        }
    sweep = {}
    for stability in (0.5, 0.7, 0.9, 0.97):
        fr = _trajectory(stability, seed + 17, intervals)
        t_inc = _best_of(k, _replay_incremental, fr, "el2")
        t_scr = _best_of(k, _replay_scratch, fr, "el2")
        sweep[str(stability)] = t_scr / t_inc
    speedups = [d["speedup"] for d in per_scheme.values()]
    return {
        "config": {
            "n_hosts": N_HOSTS,
            "side": SIDE,
            "radius": RADIUS,
            "stability": STABILITY,
            "intervals": intervals,
            "best_of": k,
            "seed": seed,
        },
        "per_scheme": per_scheme,
        "mean_speedup": float(np.mean(speedups)),
        "min_speedup": float(np.min(speedups)),
        "speedup_vs_stability_el2": sweep,
        "delta_counters_el2": _dirty_counters(frames, "el2"),
    }


# -- pytest benches ----------------------------------------------------------


@pytest.fixture(scope="module")
def frames():
    from conftest import bench_seed

    return _trajectory(STABILITY, bench_seed(), BENCH_INTERVALS)


@pytest.mark.benchmark(group="incremental-pipeline")
@pytest.mark.parametrize("scheme", SCHEMES)
def test_interval_incremental(benchmark, frames, scheme):
    masks = benchmark(lambda: _replay_incremental(frames, scheme, collect=True))
    assert len(masks) == len(frames) and all(masks)


@pytest.mark.benchmark(group="incremental-pipeline")
@pytest.mark.parametrize("scheme", SCHEMES)
def test_interval_scratch(benchmark, frames, scheme):
    masks = benchmark(lambda: _replay_scratch(frames, scheme, collect=True))
    assert len(masks) == len(frames) and all(masks)


def test_speedup_summary(capsys, results_dir):
    """Equivalence + the JSON summary the acceptance criteria read."""
    import conftest

    summary = speedup_summary(conftest.bench_seed())
    conftest.EXTRA["incremental"] = summary
    lines = [
        "incremental delta-CDS pipeline vs scratch "
        f"(N={N_HOSTS}, stability {STABILITY}, {BENCH_INTERVALS} intervals):"
    ]
    for scheme, d in summary["per_scheme"].items():
        lines.append(
            f"  {scheme:>3}: {d['incremental_ms_per_interval']:.3f} ms vs "
            f"{d['scratch_ms_per_interval']:.3f} ms  ({d['speedup']:.2f}x)"
        )
    lines.append(f"  mean speedup {summary['mean_speedup']:.2f}x")
    lines.append(
        "  el2 speedup vs stability: "
        + ", ".join(
            f"c={c}: {s:.2f}x"
            for c, s in summary["speedup_vs_stability_el2"].items()
        )
    )
    with capsys.disabled():
        print("\n" + "\n".join(lines))
    # the delta path must never lose to scratch at high stability
    assert summary["min_speedup"] > 1.0


# -- CI smoke mode -----------------------------------------------------------


def _smoke(seed: int, intervals: int) -> int:
    frames = _trajectory(STABILITY, seed, intervals)
    for scheme in SCHEMES:
        _assert_equivalent(frames, scheme)
        print(f"equivalence ok: {scheme} ({intervals + 1} intervals)")
    t_inc = sum(_best_of(2, _replay_incremental, frames, s) for s in SCHEMES)
    t_scr = sum(_best_of(2, _replay_scratch, frames, s) for s in SCHEMES)
    speedup = t_scr / t_inc
    print(
        f"all-scheme replay: incremental {t_inc:.3f}s vs scratch {t_scr:.3f}s "
        f"({speedup:.2f}x) at stability {STABILITY}"
    )
    if t_inc >= t_scr:
        print("FAIL: incremental pipeline is slower than scratch")
        return 1
    if _churn_smoke(seed):
        return 1
    if _grid_patch_smoke(seed):
        return 1
    print("smoke ok")
    return 0


def _churn_smoke(seed: int, hosts: int = 1000, batches: int = 24) -> int:
    """Service churn through the spliced delta path; 0 on success."""
    from types import SimpleNamespace

    from repro import obs
    from repro.graphs.generators import scaled_side
    from repro.service.driver import seed_positions, tenant_seed
    from repro.service.state import TenantState
    from repro.service.updates import Join, Leave, Move, UpdateStream

    side = scaled_side(hosts)
    state = TenantState(radius=RADIUS, side=side, scheme="el2")
    state.seed_population(seed_positions(seed, 0, hosts, side))
    stream = UpdateStream(
        seed=tenant_seed(seed, 0), n_initial=hosts, side=side, p_move=0.6,
        p_drain=0.2, p_churn=0.2,
    )

    def snapshot():
        return SimpleNamespace(
            adjacency=list(state.adjacency), ids=tuple(state.ids)
        )

    pipe = DeltaCDSPipeline("el2")
    kinds: set[type] = set()
    with obs.capture() as reg:
        for b in range(batches):
            for upd in stream.take(10 if b % 2 else 1):
                kinds.add(type(upd))
                state.apply(upd)
            got = pipe.compute(snapshot(), list(state.energy))
            want = compute_cds(
                list(state.adjacency), "el2", energy=list(state.energy)
            )
            if got.gateway_mask != want.gateway_mask or got.stats != want.stats:
                print(f"FAIL: churn batch {b} diverged from compute_cds")
                return 1
    splices = reg.counters.get("delta.splices", 0)
    colds = reg.counters.get("delta.cold_starts", 0)
    print(
        f"churn equivalence ok: N={hosts}, {batches} batches, "
        f"{int(splices)} splices, {int(colds)} cold start(s)"
    )
    if not {Join, Leave} <= kinds or not splices or colds != 1:
        print("FAIL: churn replay did not splice its joins and leaves")
        return 1

    cold = min(
        _timed(DeltaCDSPipeline("el2").compute, snapshot(), state.energy)
        for _ in range(3)
    )
    pipe.compute(snapshot(), list(state.energy))
    moves = []
    for k in range(7):
        v = (97 * k) % state.n
        x, y = state.positions[v]
        state.apply(Move(state.ids[v], float(x), float(min(y + 5.0, side))))
        moves.append(_timed(pipe.compute, snapshot(), list(state.energy)))
    move = float(np.median(moves))
    print(
        f"N={hosts} el2: one move {move * 1e3:.1f} ms vs cold "
        f"{cold * 1e3:.1f} ms ({cold / move:.1f}x)"
    )
    if move >= cold:
        print("FAIL: a single-move compute is not faster than a cold one")
        return 1
    return 0


def _grid_patch_smoke(seed: int, hosts: int = 2000, steps: int = 10) -> int:
    """[grid patch] apply_moves above the dense cutoff vs full rebuilds."""
    from repro.graphs.generators import scaled_side
    from repro.graphs.unitdisk import unit_disk_adjacency
    from repro.mobility.manager import MobilityManager

    side = scaled_side(hosts)
    net = random_connected_network(hosts, side=side, radius=RADIUS, rng=seed)
    region = Region2D(side=side)
    walk = PaperWalk(stability=STABILITY)
    rng = np.random.default_rng(seed + 1)
    rows = list(net.adjacency)
    for s in range(steps):
        before = net.positions.copy()
        walk.step(net.positions, region, rng)
        moved = np.flatnonzero(np.any(net.positions != before, axis=1))
        changed = net.apply_moves(moved)
        want = unit_disk_adjacency(net.positions, RADIUS)
        diff = sum(1 << v for v in range(hosts) if rows[v] != want[v])
        if net.adjacency != want or changed != diff:
            print(f"FAIL: [grid patch] step {s} diverged from a full rebuild")
            return 1
        rows = want

    class Stranding:
        """The walk, with host 0 sent out of range on the first call."""

        strand = True

        def step(self, positions, region, rng):
            walk.step(positions, region, rng)
            if self.strand:
                self.strand = False
                positions[0] = (-10.0 * side, -10.0 * side)

    mm = MobilityManager(
        net, Stranding(), region, on_disconnect="retry", rng=rng
    )
    mm.step()
    if mm.retries_used != 1 or net.adjacency != unit_disk_adjacency(
        net.positions, RADIUS
    ):
        print("FAIL: [grid patch] rollback did not restore a rebuild's rows")
        return 1
    print(
        f"[grid patch] ok: N={hosts}, {steps} steps at stability "
        f"{STABILITY} and one rollback equal full rebuilds"
    )
    return 0


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    import argparse

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--smoke", action="store_true",
        help="assert delta == scratch on a seeded trial and that the "
        "incremental path is not slower at stability 0.9",
    )
    p.add_argument("--seed", type=int, default=2001)
    p.add_argument("--intervals", type=int, default=60)
    args = p.parse_args(argv)
    if not args.smoke:
        p.error("run under pytest for timings, or pass --smoke")
    return _smoke(args.seed, args.intervals)


if __name__ == "__main__":
    raise SystemExit(main())
