"""The Rule-2 commit rounds are exact on round-heavy inputs.

:meth:`repro.core.vectorized.BatchCDSEngine._rule2` commits settled
candidate sets on a shrinking worklist: each round keeps only the firing
triples whose ``v`` is still a candidate and whose ``u`` and ``w`` are
still marked.  The inputs here are the ones where the scalar engine's
local-minimum rounds live longest:

* ``K_130`` minus a perfect matching under ``nd``: 349k firing triples,
  and only the two lowest-ranked candidates commit per scalar round (63
  rounds, 126 removals); the kernel settles all 126 in one round;
* a ladder with one diagonal per square whose ids rise along it: one
  node commits per scalar round, so those rounds grow with its length,
  while under ``id`` the kernel commits every candidate at once;
* a ``B = 4`` fixed-point batch whose elements run out of candidates at
  different rounds and freeze at different prune rounds, under
  ``max_rounds`` 1, 2 and 1000.

Each runs on the dense engine and on the sparse big tier
(``dense_cutoff=2``) with its packed-word probe and with the sorted-key
probe forced by a budget too small for the rows; flags and
:class:`PruneStats` must equal the scalar reference
(:func:`repro.core.reduction.prune` on the marking).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.marking import marked_mask
from repro.core.priority import SCHEMES
from repro.core.reduction import prune
from repro.core.sparse import CSRBatch, SparseCDSEngine
from repro.core.vectorized import (
    DEFAULT_MEMORY_BUDGET_MB,
    BatchCDSEngine,
    flags_to_masks,
    pack_batch,
)
from repro.graphs.generators import random_connected_network

ENGINES = ("dense", "sparse-word", "sparse-key")
RULE_SCHEMES = ("id", "nd", "el1", "el2")


def k_minus_matching(n: int) -> list[int]:
    """``K_n`` without the edges ``{2k, 2k+1}`` (``n`` even)."""
    full = (1 << n) - 1
    return [full & ~(1 << v) & ~(1 << (v ^ 1)) for v in range(n)]


def ladder(m: int) -> list[int]:
    """``m`` rungs ``{2i, 2i+1}``, rails ``2i ~ 2i+2`` and ``2i+1 ~ 2i+3``,
    and the diagonal ``2i ~ 2i+3`` of each square: a strip of triangles
    whose ids rise along it."""
    adj = [0] * (2 * m)

    def edge(x: int, y: int) -> None:
        adj[x] |= 1 << y
        adj[y] |= 1 << x

    for i in range(m):
        edge(2 * i, 2 * i + 1)
        if i + 1 < m:
            edge(2 * i, 2 * i + 2)
            edge(2 * i + 1, 2 * i + 3)
            edge(2 * i, 2 * i + 3)
    return adj


def path(n: int) -> list[int]:
    return [
        (1 << (v - 1) if v else 0) | (1 << (v + 1) if v + 1 < n else 0)
        for v in range(n)
    ]


def _run(kind, batch, scheme, levels, *, fixed_point=False, max_rounds=1_000):
    B, n = len(batch), len(batch[0])
    if kind == "dense":
        engine = BatchCDSEngine(
            scheme, fixed_point=fixed_point, max_rounds=max_rounds
        )
        return engine.run(pack_batch(batch), levels)
    rows_bytes = B * n * ((n + 63) // 64) * 8
    word_rows = kind == "sparse-word"
    budget = DEFAULT_MEMORY_BUDGET_MB if word_rows else rows_bytes / 2 / 2**20
    engine = SparseCDSEngine(
        scheme, fixed_point=fixed_point, max_rounds=max_rounds,
        memory_budget_mb=budget, dense_cutoff=2,
    )
    assert engine.word_rows_fit(B, n) is word_rows
    return engine.run(CSRBatch.from_adjacency(batch), levels)


def _reference(batch, scheme, levels, *, fixed_point=False, max_rounds=1_000):
    return [
        prune(
            adj, marked_mask(adj), SCHEMES[scheme], list(levels[b]),
            fixed_point=fixed_point, max_rounds=max_rounds,
        )
        for b, adj in enumerate(batch)
    ]


def _assert_matches(got, want):
    flags, stats = got
    masks = flags_to_masks(flags)
    for b, (want_mask, want_stats) in enumerate(want):
        assert masks[b] == want_mask, b
        assert stats[b] == want_stats, b


class TestKMinusMatching:
    """The round-heaviest input measured: under ``nd`` every degree ties,
    so ids rank, and only a non-adjacent pair commits per round."""

    N = 130

    @pytest.fixture(scope="class")
    def case(self):
        adj = k_minus_matching(self.N)
        levels = np.ones((1, self.N))
        with obs.capture() as reg:
            want = _reference([adj], "nd", levels)
        return adj, levels, want, reg.counters

    def test_input_is_round_heavy(self, case):
        _, _, want, counters = case
        assert counters["rule2.firing_pairs"] == 349_440
        assert counters["rule2.candidate_rounds"] == 63
        assert want[0][1].removed_rule2 == 126

    @pytest.mark.parametrize("kind", ENGINES)
    def test_engine_matches_scalar(self, case, kind):
        adj, levels, want, counters = case
        with obs.capture() as reg:
            got = _run(kind, [adj], "nd", levels)
        _assert_matches(got, want)
        c = reg.counters
        # every candidate that goes is settled in the first round, and no
        # live triple is left for a second
        assert c["rule2.candidate_rounds"] == 1
        assert c["rule2.candidate_rounds"] <= counters["rule2.candidate_rounds"]
        assert c["rule2.worklist_triples"] == c["rule2.firing_pairs"]


class TestRisingLadder:
    @pytest.mark.parametrize("m", [8, 32, 96])
    def test_rounds_grow_with_length(self, m):
        adj = ladder(m)
        levels = np.ones((1, 2 * m))
        with obs.capture() as reg:
            got = _run("dense", [adj], "id", levels)
        with obs.capture() as scalar:
            want = _reference([adj], "id", levels)
        _assert_matches(got, want)
        assert scalar.counters["rule2.candidate_rounds"] == m - 2
        assert reg.counters["rule2.candidate_rounds"] == 1

    @pytest.mark.parametrize("fixed_point", [False, True])
    @pytest.mark.parametrize("scheme", RULE_SCHEMES)
    @pytest.mark.parametrize("kind", ENGINES)
    def test_engine_matches_scalar(self, kind, scheme, fixed_point):
        adj = ladder(64)
        # energies rise with the ids too, in coarse steps that tie
        levels = (np.arange(len(adj)) // 8 + 1.0)[None, :]
        got = _run(kind, [adj], scheme, levels, fixed_point=fixed_point)
        want = _reference([adj], scheme, levels, fixed_point=fixed_point)
        _assert_matches(got, want)


class TestFixedPointBatch:
    """Four same-size elements whose Rule-2 worklists empty after very
    different numbers of rounds (under ``id``: 30 for K_64 minus a
    matching and for the ladder, 5 for a random field, none for a path)
    and whose prune loops freeze at different rounds (the path is stable
    after one, the others after two)."""

    N = 64

    @pytest.fixture(scope="class")
    def batch(self):
        n = self.N
        rng = np.random.default_rng(7)
        field = list(random_connected_network(n, rng=rng).adjacency)
        batch = [k_minus_matching(n), ladder(n // 2), field, path(n)]
        levels = rng.integers(1, 4, size=(len(batch), n)).astype(float)
        return batch, levels

    @pytest.mark.parametrize("max_rounds", [1, 2, 1_000])
    @pytest.mark.parametrize("scheme", RULE_SCHEMES)
    @pytest.mark.parametrize("kind", ENGINES)
    def test_engine_matches_scalar(self, batch, kind, scheme, max_rounds):
        adjs, levels = batch
        want = _reference(
            adjs, scheme, levels, fixed_point=True, max_rounds=max_rounds
        )
        got = _run(
            kind, adjs, scheme, levels,
            fixed_point=True, max_rounds=max_rounds,
        )
        _assert_matches(got, want)
        if max_rounds > 1:
            rounds = [st.rounds for _, st in want]
            assert rounds[3] == 1 < max(rounds)
