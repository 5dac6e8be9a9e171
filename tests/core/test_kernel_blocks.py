"""The shared kernels stream in cache-sized blocks, capped by the budget.

:meth:`BatchCDSEngine._edge_miss` (through ``vectorized._expand``) and
:meth:`BatchCDSEngine._firing_triples` (its pair blocks, each handed to
``vectorized.pair_index_arrays``) work in blocks of
``min(chunk_words(memory_budget_mb), CACHE_BLOCK)`` members: at the
default budget the cache block decides, and a budget smaller than the
block still caps every block.  A block may exceed the cap only when it
is one segment (one edge's expansion, one source row's pairs) that is
bigger on its own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import vectorized
from repro.core.sparse import CSRBatch, SparseCDSEngine
from repro.core.vectorized import (
    CACHE_BLOCK,
    MEMORY_BUDGET_ENV,
    BatchCDSEngine,
    chunk_words,
    pack_batch,
)
from repro.graphs.adhoc import AdHocNetwork
from repro.graphs.generators import scaled_side
from tests.property.test_rule2_rounds import k_minus_matching


@pytest.fixture(autouse=True)
def _no_env_budget(monkeypatch):
    monkeypatch.delenv(MEMORY_BUDGET_ENV, raising=False)


def uniform_field(n: int = 1500, seed: int = 4):
    """A constant-density field: ~180k members to expand and ~100k
    pairs to test, a few blocks of each at the default budget."""
    rng = np.random.default_rng(seed)
    side = scaled_side(n)
    adj = list(AdHocNetwork(rng.uniform(0, side, (n, 2)), 25.0, side=side).adjacency)
    return adj, rng.uniform(1, 30, size=(1, n))


def _spy(monkeypatch, run):
    """Members per ``_expand`` chunk and triples per pair block, each
    with its number of segments."""
    chunks, blocks = [], []
    real_expand = vectorized._expand
    real_pairs = vectorized.pair_index_arrays

    def expand(counts, budget):
        for lo, hi, within in real_expand(counts, budget):
            chunks.append((budget, len(within), hi - lo))
            yield lo, hi, within

    def pairs(counts):
        i, j = real_pairs(counts)
        blocks.append((len(i), len(counts)))
        return i, j

    monkeypatch.setattr(vectorized, "_expand", expand)
    monkeypatch.setattr(vectorized, "pair_index_arrays", pairs)
    run()
    return chunks, blocks


def _engines(budget_mb):
    dense = BatchCDSEngine("el2", memory_budget_mb=budget_mb)
    sparse = SparseCDSEngine("el2", memory_budget_mb=budget_mb, dense_cutoff=2)

    def run_dense(adj, levels):
        return lambda: dense.run(pack_batch([adj]), levels)

    def run_sparse(adj, levels):
        return lambda: sparse.run(CSRBatch.from_adjacency([adj]), levels)

    return {"dense": run_dense, "sparse": run_sparse}


def _assert_capped(chunks, blocks, cap):
    assert chunks and blocks
    for budget, members, segments in chunks:
        assert budget == cap
        assert members <= cap or segments == 1
    for triples, rows in blocks:
        assert triples <= cap or rows == 1


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_default_budget_streams_cache_blocks(monkeypatch, kind):
    assert chunk_words() > CACHE_BLOCK == 1 << 16
    adj, levels = uniform_field()
    run = _engines(None)[kind](adj, levels)
    chunks, blocks = _spy(monkeypatch, run)
    _assert_capped(chunks, blocks, CACHE_BLOCK)
    # the inputs overflow one block, and the blocks fill up to the cap
    assert len(chunks) > 1 and len(blocks) > 1
    assert max(m for _, m, _ in chunks) > CACHE_BLOCK // 2
    assert max(t for t, _ in blocks) > CACHE_BLOCK // 2


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_small_budget_wins_over_the_block(monkeypatch, kind):
    cap = chunk_words(0.01)
    assert cap < CACHE_BLOCK
    adj, levels = uniform_field(400)
    chunks, blocks = _spy(monkeypatch, _engines(0.01)[kind](adj, levels))
    _assert_capped(chunks, blocks, cap)
    assert len(chunks) > 1


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_a_row_bigger_than_the_cap_is_its_own_block(monkeypatch, kind):
    # every node is marked with 98 marked neighbours: 4753 pairs per row,
    # more than the 4096-triple cap of a 0.01 MB budget
    n = 100
    adj = k_minus_matching(n)
    cap = chunk_words(0.01)
    chunks, blocks = _spy(
        monkeypatch, _engines(0.01)[kind](adj, np.ones((1, n)))
    )
    _assert_capped(chunks, blocks, cap)
    assert all(rows == 1 for _, rows in blocks)
    assert len(blocks) == n and all(t == 98 * 97 // 2 for t, _ in blocks)
