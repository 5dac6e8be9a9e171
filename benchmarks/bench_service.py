"""Backbone service: throughput/latency timing + kill -9 acceptance.

Two jobs, one file (mirroring ``bench_executor.py``):

* Under pytest(-benchmark): time the service's sustained update
  throughput on a mid-size tenant, record the query-latency percentiles
  into ``conftest.EXTRA["service"]`` (so they land in
  ``BENCH_pipeline.json``), and time raw journal (WAL + snapshot)
  overhead against the in-memory service.
* As a plain script (the ``service-chaos`` CI job)::

      python benchmarks/bench_service.py --smoke

  starts a journaled ``repro serve`` in a subprocess, SIGKILLs the whole
  process group mid-update-stream, re-runs the same command, and asserts
  the recovered final states are **bit-identical** (sha256 state
  digests) to an uninterrupted in-process reference run.  It then pushes
  one journaled burst of queued updates and asserts the service paid a
  single publish for it, landing on the digest of an unjournaled replay.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # plain-script mode without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs
from repro.service import ServiceConfig
from repro.service.driver import (
    bench_service,
    drive_tenants,
    seed_positions,
    tenant_seed,
)
from repro.service.server import BackboneService
from repro.service.state import TenantState
from repro.service.updates import UpdateStream

_SEED = 2001

# -- pytest-benchmark section -------------------------------------------------

_BENCH_HOSTS = 100
_BENCH_UPDATES = 40


def _run_bench(data_dir: str | None = None) -> dict:
    async def go() -> dict:
        service = BackboneService(
            ServiceConfig(queue_high_water=4 * _BENCH_UPDATES, data_dir=data_dir)
        )
        try:
            return await bench_service(
                service,
                hosts=_BENCH_HOSTS,
                updates=_BENCH_UPDATES,
                seed=_SEED,
                side=100.0,
            )
        finally:
            await service.close()

    return asyncio.run(go())


def test_service_throughput(benchmark):
    """Sustained updates/sec through the full maintain-verify-publish path."""
    res = benchmark.pedantic(_run_bench, rounds=3, iterations=1)
    assert res["updates_per_s"] > 0
    assert res["stale_publishes"] == 0, "no degradation expected without chaos"
    import conftest

    conftest.EXTRA.setdefault("service", {})[f"n{_BENCH_HOSTS}"] = res


def test_service_throughput_journaled(benchmark):
    """Same workload with per-update fsync'd WAL: the durability tax."""

    def run():
        with tempfile.TemporaryDirectory() as d:
            return _run_bench(data_dir=d)

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res["updates_per_s"] > 0
    import conftest

    conftest.EXTRA.setdefault("service", {})[
        f"n{_BENCH_HOSTS}_journaled"
    ] = res


# -- CI smoke mode: SIGKILL a journaled serve, restart, compare ---------------

_SMOKE_TENANTS = 2
_SMOKE_HOSTS = 30
_SMOKE_UPDATES = 250
_SMOKE_SNAP_EVERY = 7


def _serve_command(data_dir: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "serve",
        "--tenants", str(_SMOKE_TENANTS),
        "--hosts", str(_SMOKE_HOSTS),
        "--updates", str(_SMOKE_UPDATES),
        "--seed", str(_SEED),
        "--snapshot-every", str(_SMOKE_SNAP_EVERY),
        "--data-dir", data_dir,
        "--digest",
    ]


def _reference_digests() -> dict[str, str]:
    """Uninterrupted in-process run, no journal: the ground truth."""

    async def go() -> dict[str, str]:
        service = BackboneService(ServiceConfig())
        try:
            report = await drive_tenants(
                service,
                tenants=_SMOKE_TENANTS,
                hosts=_SMOKE_HOSTS,
                updates=_SMOKE_UPDATES,
                seed=_SEED,
                side=100.0,
            )
        finally:
            await service.close()
        assert report.ok, "reference run must complete cleanly"
        return report.digests

    return asyncio.run(go())


def _progress_snapshots(root: Path) -> int:
    """Snapshot generations with base > 0 across all tenant journals —
    the signal that real update processing is underway."""
    n = 0
    for snap in root.glob("*/snapshot-*.json"):
        if not snap.name.endswith("-000000000000.json"):
            n += 1
    return n


def _parse_digests(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "digest":
            out[parts[1]] = parts[2]
    return out


def _smoke() -> int:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")

    with tempfile.TemporaryDirectory() as d:
        data = Path(d) / "journals"

        # 1. start a journaled serve and SIGKILL it mid-update-stream
        proc = subprocess.Popen(
            _serve_command(str(data)), env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 120.0
        try:
            while _progress_snapshots(data) < 2:
                if proc.poll() is not None:
                    raise AssertionError(
                        "serve finished before it could be killed; raise "
                        "_SMOKE_UPDATES"
                    )
                if time.monotonic() > deadline:
                    raise AssertionError(
                        "no progress snapshots appeared within 120s"
                    )
                time.sleep(0.002)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        print(
            f"killed serve with {_progress_snapshots(data)} progress "
            "snapshots on disk"
        )

        # 2. identical command recovers from WAL + snapshots and resumes
        done = subprocess.run(
            _serve_command(str(data)), env=env, check=True,
            capture_output=True, text=True, timeout=600,
        )
        recovered = _parse_digests(done.stdout)
        assert len(recovered) == _SMOKE_TENANTS, (
            f"expected {_SMOKE_TENANTS} digests, got: {done.stdout!r}"
        )

        # 3. bit-identical to the uninterrupted reference
        reference = _reference_digests()
        for tenant, want in reference.items():
            got = recovered.get(tenant)
            assert got == want, (
                f"tenant {tenant} diverged after kill/restart: "
                f"{got} != {want}"
            )
    print(
        f"smoke ok: kill -9 mid-stream recovery of {_SMOKE_TENANTS} "
        f"tenants x {_SMOKE_UPDATES} updates is bit-identical"
    )
    return 0


_BURST = 10


def _burst_smoke() -> None:
    """One journaled burst of queued updates: one publish, exact state."""
    positions = seed_positions(_SEED, 0, _SMOKE_HOSTS, 100.0)
    updates = UpdateStream(
        seed=tenant_seed(_SEED, 0), n_initial=_SMOKE_HOSTS
    ).take(_BURST)

    async def go() -> tuple[float, str]:
        with tempfile.TemporaryDirectory() as d:
            service = BackboneService(ServiceConfig(data_dir=d))
            try:
                with obs.capture() as reg:
                    await service.add_tenant("t", positions)
                    await service.get_backbone("t", deadline_s=60.0)
                    before = reg.counters["service.publishes"]
                    for upd in updates:
                        service.submit_nowait("t", upd)
                    await service.wait_seq("t", _BURST, deadline_s=60.0)
                grew = reg.counters["service.publishes"] - before
                return grew, service.state_digest("t")
            finally:
                await service.close()

    grew, digest = asyncio.run(go())
    assert grew == 1, f"a queued burst of {_BURST} cost {grew} publishes"
    replay = TenantState()
    replay.seed_population(positions)
    for upd in updates:
        replay.apply(upd)
    assert digest == replay.digest(), "journaled burst diverged from replay"
    print(f"smoke ok: a queued burst of {_BURST} updates cost one publish")


def main(argv: list[str] | None = None) -> int:
    import argparse

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--smoke", action="store_true",
        help="SIGKILL a journaled serve mid-stream, restart, compare digests",
    )
    args = p.parse_args(argv)
    if not args.smoke:
        p.error("run under pytest for timings, or pass --smoke")
    _smoke()
    _burst_smoke()
    return 0


if __name__ == "__main__":
    sys.exit(main())
