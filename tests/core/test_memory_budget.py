"""Memory-budget plumbing and peak-memory regression tests (ISSUE 9).

Two satellite contracts live here:

* the chunk budgets (``chunk_words``/``chunk_bits``, historically the
  hardcoded ``_CHUNK_WORDS``/``_CHUNK_BITS``) are configurable through
  an explicit ``memory_budget_mb``, the ``REPRO_MEMORY_BUDGET_MB``
  environment variable, and :class:`SimulationConfig` — with explicit >
  env > default precedence — and NO budget value may ever change
  results, only peak memory and speed;
* a ``tracemalloc`` regression test pins the peak-memory model at
  N=4096: one interval's worth of CDS work on both the vectorized and
  sparse engines must stay under ``PEAK_LIMIT_X`` times
  ``max(csr_bytes, budget_bytes)``.  The streamed kernels materialize
  roughly 7-8 budget-sized temporaries per chunk, so the honest peak is
  ~8-10x the budget; 16x (matching ``PEAK_OVER_BUDGET_LIMIT`` in
  ``benchmarks/bench_sparse.py``) leaves headroom for allocator noise
  without letting an accidental full densification (O(n^2) bytes,
  hundreds of times the budget at this size) slip through.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.sparse import CSRBatch, SparseCDSEngine
from repro.core.vectorized import (
    DEFAULT_MEMORY_BUDGET_MB,
    MEMORY_BUDGET_ENV,
    BatchCDSEngine,
    chunk_bits,
    chunk_words,
    compute_cds_batch,
    pack_batch,
    resolve_memory_budget_mb,
)
from repro.errors import ConfigurationError
from repro.graphs.adhoc import AdHocNetwork
from repro.graphs.generators import random_connected_network, scaled_side
from repro.simulation.config import SimulationConfig

RADIUS = 25.0

#: documented multiple of max(CSR bytes, budget bytes) the N=4096 peak
#: must stay under (see module docstring for the 7-8x temporaries model).
PEAK_LIMIT_X = 16.0


class TestBudgetResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(MEMORY_BUDGET_ENV, raising=False)
        assert resolve_memory_budget_mb() == DEFAULT_MEMORY_BUDGET_MB

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "12.5")
        assert resolve_memory_budget_mb() == 12.5

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "12.5")
        assert resolve_memory_budget_mb(3.0) == 3.0

    @pytest.mark.parametrize("bad", ["-1", "0", "not-a-number"])
    def test_bad_env_rejected(self, monkeypatch, bad):
        monkeypatch.setenv(MEMORY_BUDGET_ENV, bad)
        with pytest.raises(ConfigurationError):
            resolve_memory_budget_mb()

    def test_bad_explicit_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_memory_budget_mb(0.0)

    def test_defaults_reproduce_historical_constants(self, monkeypatch):
        monkeypatch.delenv(MEMORY_BUDGET_ENV, raising=False)
        assert chunk_words() == 1 << 22
        assert chunk_bits() == 1 << 26

    def test_chunks_scale_and_floor(self):
        assert chunk_words(128.0) == 2 * (1 << 22)
        assert chunk_bits(32.0) == 1 << 25
        assert chunk_words(0.001) == 1 << 12  # floor
        assert chunk_bits(0.001) == 1 << 15  # floor

    def test_config_accepts_and_validates_budget(self):
        cfg = SimulationConfig(n_hosts=20, memory_budget_mb=8.0)
        assert cfg.memory_budget_mb == 8.0
        with pytest.raises(ConfigurationError):
            SimulationConfig(n_hosts=20, memory_budget_mb=-1.0)


class TestBudgetNeverChangesResults:
    def test_env_budget_bit_identity(self, monkeypatch):
        n = 120
        side = scaled_side(n)
        rng = np.random.default_rng(17)
        net = AdHocNetwork(rng.uniform(0, side, size=(n, 2)), RADIUS, side=side)
        adj = [list(net.adjacency)]
        energies = rng.uniform(50, 150, size=(1, n))

        monkeypatch.delenv(MEMORY_BUDGET_ENV, raising=False)
        want = compute_cds_batch(adj, "el2", energies=energies)
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "0.01")
        got = compute_cds_batch(adj, "el2", energies=energies)
        assert [r.gateway_mask for r in got] == [r.gateway_mask for r in want]
        assert [r.stats for r in got] == [r.stats for r in want]


class TestWordRowsHonorBudget:
    """The sparse big tier builds packed word rows (``B·n·⌈n/64⌉·8``
    bytes) only when they fit the budget; the ``scds.word_probe_nodes``
    counter says which probe each call used."""

    N = 200  # one connected field: 200 rows of 4 words = 6400 bytes
    ROWS_BYTES = 200 * 4 * 8

    def _run(self, monkeypatch, budget_mb: float):
        from repro import obs
        from repro.core import sparse

        built = []
        real = sparse._word_rows

        def spy(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(sparse, "_word_rows", spy)
        net = random_connected_network(
            self.N, side=scaled_side(self.N), radius=RADIUS,
            rng=np.random.default_rng(5),
        )
        csr = CSRBatch.from_adjacency([list(net.adjacency)])
        engine = SparseCDSEngine(
            "id", memory_budget_mb=budget_mb, dense_cutoff=2
        )
        with obs.capture() as reg:
            engine.run(csr)
        return engine, built, reg.counters

    def test_rows_built_when_they_fit(self, monkeypatch):
        budget = self.ROWS_BYTES / 2**20  # exactly the rows' size
        engine, built, counters = self._run(monkeypatch, budget)
        assert engine.word_rows_fit(1, self.N)
        assert len(built) == 1
        assert counters["scds.csr_nodes"] == self.N
        assert counters["scds.word_probe_nodes"] == self.N

    def test_rows_skipped_when_over_budget(self, monkeypatch):
        budget = (self.ROWS_BYTES - 8) / 2**20
        engine, built, counters = self._run(monkeypatch, budget)
        assert not engine.word_rows_fit(1, self.N)
        assert built == []
        assert counters["scds.csr_nodes"] == self.N
        assert counters["scds.word_probe_nodes"] == 0

    def test_default_budget_sizes(self, monkeypatch):
        """At 64 MB, N = 10k (12.5 MB of rows) takes the word probe and
        N = 100k (1.25 GB) the key probe."""
        monkeypatch.delenv(MEMORY_BUDGET_ENV, raising=False)
        engine = SparseCDSEngine("el2")
        assert engine.word_rows_fit(1, 10_000)
        assert not engine.word_rows_fit(1, 100_000)


class TestExpandChunksHonorBudget:
    """``vectorized._expand`` cuts its chunks on the cumulative segment
    counts: a chunk holds at most the member budget, or one whole segment
    bigger than the budget on its own.  Sizing chunks by the *mean*
    segment overran the budget on skewed degrees: on this input (a
    3000-node field with one node joined to 1000 others) a single chunk
    held 1 033 100 members against a 65 536-member budget (15.8×)."""

    BUDGET_MB = 1.0

    def _chunks(self, monkeypatch, run):
        from repro.core import vectorized

        seen = []
        real = vectorized._expand

        def spy(counts, budget):
            for lo, hi, within in real(counts, budget):
                seen.append((budget, len(within), counts[lo:hi].copy()))
                yield lo, hi, within

        monkeypatch.setattr(vectorized, "_expand", spy)
        run()
        return seen

    def _check(self, seen):
        assert seen
        budget = seen[0][0]
        assert budget == chunk_words(self.BUDGET_MB) == 65_536
        for _, members, counts in seen:
            assert members == counts.sum()
            assert members <= budget or len(counts) == 1

    def test_dense_engine(self, monkeypatch):
        from tests.property.test_kernel_masks import hub_field, tied_levels

        adj = hub_field()
        levels = tied_levels(len(adj))[None, :]
        engine = BatchCDSEngine("el2", memory_budget_mb=self.BUDGET_MB)
        seen = self._chunks(
            monkeypatch, lambda: engine.run(pack_batch([adj]), levels)
        )
        self._check(seen)
        # every directed edge (v→u) expands into deg(v) members, once
        deg = np.array([bin(row).count("1") for row in adj])
        assert sum(m for _, m, _ in seen) == int((deg * deg).sum())

    def test_sparse_big_tier(self, monkeypatch):
        from tests.property.test_kernel_masks import hub_field, tied_levels

        adj = hub_field()
        levels = tied_levels(len(adj))[None, :]
        csr = CSRBatch.from_adjacency([adj])
        engine = SparseCDSEngine(
            "el2", memory_budget_mb=self.BUDGET_MB, dense_cutoff=2
        )
        self._check(self._chunks(monkeypatch, lambda: engine.run(csr, levels)))


def _n4096_instance(seed: int = 123):
    n = 4096
    side = scaled_side(n)
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, side, size=(n, 2))
    energy = rng.uniform(50, 150, size=(1, n))
    return pos, energy


def _peak_of(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.slow
class TestPeakMemoryRegression:
    """Peak memory at N=4096 under an 8 MB budget stays within the
    documented model.  Measured 2026-08: sparse ~9.3x, dense ~10.2x."""

    BUDGET_MB = 8.0

    def test_sparse_interval_peak(self):
        pos, energy = _n4096_instance()
        limit = None

        def run():
            nonlocal limit
            csr = CSRBatch.from_positions(
                pos, RADIUS, memory_budget_mb=self.BUDGET_MB
            )
            limit = PEAK_LIMIT_X * max(
                csr.nbytes, self.BUDGET_MB * 2**20
            )
            SparseCDSEngine(
                "el2", memory_budget_mb=self.BUDGET_MB
            ).run(csr, energy)

        peak = _peak_of(run)
        assert peak < limit, f"sparse peak {peak/2**20:.1f} MB over model"

    def test_vectorized_interval_peak(self):
        pos, energy = _n4096_instance()
        net = AdHocNetwork(pos.copy(), RADIUS, side=scaled_side(4096))
        packed = pack_batch([list(net.adjacency)])
        csr_bytes = CSRBatch.from_adjacency([list(net.adjacency)]).nbytes
        limit = PEAK_LIMIT_X * max(csr_bytes, self.BUDGET_MB * 2**20)
        peak = _peak_of(
            lambda: BatchCDSEngine(
                "el2", memory_budget_mb=self.BUDGET_MB
            ).run(packed, energy)
        )
        assert peak < limit, f"dense peak {peak/2**20:.1f} MB over model"
