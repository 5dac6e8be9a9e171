"""The shared kernels stream in cache-sized blocks, capped by the budget.

:meth:`BatchCDSEngine._edge_miss` (through ``vectorized._expand``) and
:meth:`BatchCDSEngine._firing_triples` (through
``vectorized._witness_pairs``, runs of edges counted by their candidate
pairs) work in blocks of ``min(chunk_words(memory_budget_mb),
CACHE_BLOCK)`` members: at the default budget the cache block decides,
and a budget smaller than the block still caps every block.  A block may
exceed the cap only when it is one segment (one edge's expansion, one
edge's candidate pairs) that is bigger on its own.  The pair counts pin
the witness filter too: on near-cliques whose miss masks hold two members
it keeps exactly the pairs a brute-force count keeps, rows past one word
included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import vectorized
from repro.core.marking import marked_mask
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
    """Members per ``_expand`` chunk, candidate pairs per pair block, each
    with its number of segments, and the block's surviving pairs."""
    chunks, blocks = [], []
    real_expand = vectorized._expand
    real_pairs = vectorized._witness_pairs

    def expand(counts, budget):
        for lo, hi, within in real_expand(counts, budget):
            chunks.append((budget, len(within), hi - lo))
            yield lo, hi, within

    def pairs(miss, eS, sel, budget):
        for bound, tV, gU, gW in real_pairs(miss, eS, sel, budget):
            blocks.append((budget, int(bound.sum()), len(bound), len(tV)))
            yield bound, tV, gU, gW

    monkeypatch.setattr(vectorized, "_expand", expand)
    monkeypatch.setattr(vectorized, "_witness_pairs", pairs)
    with obs.capture() as reg:
        run()
    return chunks, blocks, reg.counters


def _engines(budget_mb):
    dense = BatchCDSEngine("el2", memory_budget_mb=budget_mb)
    sparse = SparseCDSEngine("el2", memory_budget_mb=budget_mb, dense_cutoff=2)

    def run_dense(adj, levels):
        return lambda: dense.run(pack_batch([adj]), levels)

    def run_sparse(adj, levels):
        return lambda: sparse.run(CSRBatch.from_adjacency([adj]), levels)

    return {"dense": run_dense, "sparse": run_sparse}


def _assert_capped(chunks, blocks, counters, cap):
    assert chunks and blocks
    for budget, members, segments in chunks:
        assert budget == cap
        assert members <= cap or segments == 1
    for budget, candidates, edges, tested in blocks:
        assert budget == cap
        assert candidates <= cap or edges == 1
        assert tested <= candidates
    # the runs cover every marked pair once; only the survivors are tested
    assert sum(b[1] for b in blocks) == counters["rule2.coverage_tests"]
    assert sum(b[3] for b in blocks) == counters["rule2.pair_tests"]


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_default_budget_streams_cache_blocks(monkeypatch, kind):
    assert chunk_words() > CACHE_BLOCK == 1 << 16
    adj, levels = uniform_field()
    run = _engines(None)[kind](adj, levels)
    chunks, blocks, counters = _spy(monkeypatch, run)
    _assert_capped(chunks, blocks, counters, CACHE_BLOCK)
    # the inputs overflow one block, and the blocks fill up to the cap
    assert len(chunks) > 1 and len(blocks) > 1
    assert max(m for _, m, _ in chunks) > CACHE_BLOCK // 2
    assert max(b[1] for b in blocks) > CACHE_BLOCK // 2
    # the witness filter leaves a fraction of the pairs for the exact test
    assert counters["rule2.pair_tests"] < counters["rule2.coverage_tests"] // 2


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_small_budget_wins_over_the_block(monkeypatch, kind):
    cap = chunk_words(0.01)
    assert cap < CACHE_BLOCK
    adj, levels = uniform_field(400)
    chunks, blocks, counters = _spy(
        monkeypatch, _engines(0.01)[kind](adj, levels)
    )
    _assert_capped(chunks, blocks, counters, cap)
    assert len(chunks) > 1


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_a_row_bigger_than_the_cap_splits_on_edges(monkeypatch, kind):
    # every node is marked with 98 marked neighbours: 4753 pairs per row,
    # more than the 4096-pair cap of a 0.01 MB budget, so a row spans
    # runs of whole edges (at most 97 candidate pairs each)
    n = 100
    adj = k_minus_matching(n)
    cap = chunk_words(0.01)
    chunks, blocks, counters = _spy(
        monkeypatch, _engines(0.01)[kind](adj, np.ones((1, n)))
    )
    _assert_capped(chunks, blocks, counters, cap)
    assert all(b[1] <= cap for b in blocks)
    assert counters["rule2.coverage_tests"] == n * (98 * 97 // 2)
    assert len(blocks) >= counters["rule2.coverage_tests"] // cap
    # the 49 pairs of v's neighbours matched to each other are the only
    # ones that do not cover N(v), and the filter drops exactly them
    assert counters["rule2.pair_tests"] == n * (98 * 97 // 2 - 49)
    assert counters["rule2.covered_triples"] == counters["rule2.pair_tests"]


def k_minus_shifted_matching(n: int) -> list[int]:
    """``K_n`` without the edges ``{i, i + n/2}``: past bit 63 of a row,
    the partners of the neighbours in the first word sit just above
    the neighbours ``n/2`` ids up."""
    full, half = (1 << n) - 1, n // 2
    return [full & ~(1 << v) & ~(1 << (v + half) % n) for v in range(n)]


def filtered_pairs(adj: list[int]) -> int:
    """Pairs ``(u, w)`` of a row, ``w`` after ``u``, both marked, with
    ``w`` adjacent to every member of ``M[v→u] = N(v) \\ N(u)`` (``u``
    included): the pairs an exact witness filter keeps, counted by
    brute force over the Python-int rows."""
    marked = marked_mask(adj)
    total = 0
    for v, row in enumerate(adj):
        if not marked >> v & 1:
            continue
        nbrs = [u for u in range(len(adj)) if row >> u & 1 and marked >> u & 1]
        for i, u in enumerate(nbrs):
            miss, common = row & ~adj[u], -1
            for x in range(len(adj)):
                if miss >> x & 1:
                    common &= adj[x]
            total += sum(common >> w & 1 for w in nbrs[i + 1 :])
    return total


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_filter_keeps_every_pair_past_the_first_word(kind):
    # rows of 130 neighbours, 3 words; M[v→u] = {u, partner(u)}, so the
    # filter is exact and keeps every pair but the 65 matched ones.  A
    # member whose edge were found from its bit position alone would
    # name a neighbour 64 places too low, whose partner sits just above
    # u, and drop that pair
    n = 132
    adj = k_minus_shifted_matching(n)
    with obs.capture() as reg:
        _engines(None)[kind](adj, np.ones((1, n)))()
    counters = reg.counters
    assert counters["rule2.coverage_tests"] == n * (130 * 129 // 2)
    assert counters["rule2.pair_tests"] == filtered_pairs(adj)
    assert counters["rule2.pair_tests"] == n * (130 * 129 // 2 - 65)
    assert counters["rule2.covered_triples"] == counters["rule2.pair_tests"]
