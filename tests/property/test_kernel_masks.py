"""Rule-2 miss masks at and past the 64-bit word boundary.

The shared kernels keep one miss mask ``M[v→u] = N(v) \\ N(u)`` per
directed edge, stored over ``v``'s local neighbour index in
``words_for(deg(v))`` words, and answer every Rule-2 coverage test with
an AND of two such masks.  Rows wider than one word take a second pass,
so the inputs here put degrees on both sides of 64 and 128: cliques,
stars, cliques with a perfect matching removed (every node marked, Rule 2
does the pruning), dense random graphs whose private leaves sit past
bit 63 of their owners' masks (a kernel that ANDed only first words
fails there), a wide row whose only covering pair sits past bit 63
(a kernel that found a member's edge from its bit in the word alone,
without the words before it, filters that pair out), and a unit-disk
field with one node joined to 1000 others.  Every input runs on the dense engine and on the sparse big tier
(``dense_cutoff=2``) over both of its membership probes, under schemes
id, nd, el1 and el2 with energy levels that tie at the key quantum, and
the flags and :class:`PruneStats` must equal the scalar reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.marking import marked_mask
from repro.core.priority import SCHEMES
from repro.core.reduction import prune
from repro.core.sparse import CSRBatch, SparseCDSEngine, _key_probe
from repro.core.vectorized import (
    BatchCDSEngine,
    _word_probe,
    edge_table,
    flags_to_masks,
    pack_batch,
    words_for,
)
from repro.graphs.unitdisk import unit_disk_adjacency

SCHEME_NAMES = ["id", "nd", "el1", "el2"]


def clique(n: int) -> list[int]:
    full = (1 << n) - 1
    return [full & ~(1 << v) for v in range(n)]


def star(leaves: int) -> list[int]:
    adj = [1] * (leaves + 1)
    adj[0] = ((1 << (leaves + 1)) - 1) & ~1
    return adj


def clique_minus_matching(n: int, seed: int = 0) -> list[int]:
    """K_n (n even) without a random perfect matching: every node is
    marked and Rule 1 removes none, so Rule 2 does the pruning."""
    adj = clique(n)
    order = np.random.default_rng(seed).permutation(n).tolist()
    for a, b in zip(order[0::2], order[1::2]):
        adj[a] &= ~(1 << b)
        adj[b] &= ~(1 << a)
    return adj


def dense_with_leaves(n: int, leaves: int = 10, seed: int = 0) -> list[int]:
    """G(n, 0.9) whose first ``leaves`` nodes each own a pendant leaf.

    A leaf's id is above every core id, so it sits past bit 63 of its
    owner's neighbour index whenever the owner has more than 64
    neighbours.  The owner can never be Rule-2 covered (only it reaches
    the leaf), but the masks of most core pairs agree with coverage on
    their first word: a kernel that skipped the further words would
    remove it."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.9, 1)
    sym = upper | upper.T
    adj = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in sym]
    adj += [0] * leaves
    for v in range(leaves):
        adj[v] |= 1 << (n + v)
        adj[n + v] = 1 << v
    return adj


def lone_wide_pair(k: int, spare: bool = False) -> list[int]:
    """A row of ``k + 3`` neighbours whose one covering pair sits past
    bit 63.

    ``v = k + 1`` sees ``a0..ak`` (ids ``0..k``), ``h = k + 2`` and
    ``g = k + 3``.  Each of ``a1..ak`` sees only ``v`` and ``h``; ``h``
    sees every neighbour of ``v`` but ``a0``; ``g`` sees ``v``, ``h``,
    ``a0`` and a private node ``z = k + 4``.  So ``(h, g)`` is the only
    pair that covers ``N(v)``, and ``M[v→h] = {a0, h}``.  With
    ``spare``, a node ``y = k + 5`` seen by ``v`` and ``g`` alone adds
    a member of ``M[v→h]`` in ``h``'s own word.  Under id, Rule 2
    removes ``v`` only if the witness filter keeps ``(h, g)``.
    """
    v, h, g, z = k + 1, k + 2, k + 3, k + 4
    adj = [0] * (k + 5 + spare)

    def edge(a: int, b: int) -> None:
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    for a in range(k + 1):
        edge(v, a)
        if a:
            edge(h, a)
    for a, b in ((v, h), (v, g), (h, g), (g, 0), (g, z)):
        edge(a, b)
    if spare:
        edge(v, k + 5)
        edge(g, k + 5)
    return adj


def hub_field(n: int = 3000, hub_deg: int = 1000, seed: int = 3) -> list[int]:
    """Uniform constant-density field (radius 25) whose node 0 is also
    joined to ``hub_deg`` random others: one row about 16 words wide."""
    rng = np.random.default_rng(seed)
    side = 100 * (n / 100) ** 0.5
    adj = list(unit_disk_adjacency(rng.uniform(0, side, size=(n, 2)), 25.0))
    for u in rng.choice(np.arange(1, n), size=hub_deg, replace=False).tolist():
        adj[0] |= 1 << u
        adj[u] |= 1
    return adj


def tied_levels(n: int, seed: int = 1) -> np.ndarray:
    """A few integer bases plus offsets under half the 1e-9 key quantum:
    distinct floats that quantize to one key component."""
    rng = np.random.default_rng(seed)
    bases = rng.integers(1, 4, size=n).astype(np.float64)
    return bases + rng.choice([0.0, 3e-10, -4e-10], size=n)


INPUTS = {
    **{f"K{n}": (lambda n=n: clique(n)) for n in (64, 65, 66, 129, 130)},
    **{f"star{k}": (lambda k=k: star(k)) for k in (64, 65, 128, 129)},
    **{
        f"K{n}-matching": (lambda n=n: clique_minus_matching(n))
        for n in (66, 68)  # degree 64 and 66: widths 1 and 2
    },
    **{
        f"G{n}-leaves": (lambda n=n: dense_with_leaves(n))
        for n in (100, 150)  # degrees ~90 and ~135: widths 2 and 3
    },
    **{
        f"lone-pair{k}{'-spare' if spare else ''}": (
            lambda k=k, spare=spare: lone_wide_pair(k, spare)
        )
        for k in (64, 130)  # degrees 67 and 133: widths 2 and 3
        for spare in (False, True)
    },
    "hub-field": hub_field,
}

_CACHE: dict[str, list[int]] = {}


def graph(name: str) -> list[int]:
    if name not in _CACHE:
        _CACHE[name] = INPUTS[name]()
    return _CACHE[name]


def _edges(adj: list[int]):
    n = len(adj)
    rows = pack_batch([adj]).reshape(n, -1)
    eS, eD, eDf = edge_table(rows, n)
    deg = np.bincount(eS, minlength=n)
    return rows, eS, eD, eDf, deg, np.cumsum(deg) - deg


@pytest.mark.parametrize("name", sorted(INPUTS))
class TestMaskTable:
    def test_ragged_size_and_bits(self, name):
        """``Σ deg·⌈deg/64⌉`` words, and bit ``p`` of edge ``(v→u)`` set
        exactly when ``v``'s ``p``-th neighbour is not adjacent to ``u``
        (from both probes)."""
        adj = graph(name)
        n = len(adj)
        rows, eS, eD, eDf, deg, eoff = _edges(adj)
        engine = BatchCDSEngine("id")
        miss = engine._edge_miss(_word_probe(rows), eD, eoff, deg, eS, eDf)
        want_words = int(sum(d * words_for(d) for d in deg.tolist() if d))
        assert len(miss.words) == want_words
        assert np.array_equal(miss.width[deg > 0], (deg[deg > 0] + 63) // 64)
        keyed = engine._edge_miss(
            _key_probe(eS * n + eD, n), eD, eoff, deg, eS, eDf
        )
        assert np.array_equal(keyed.words, miss.words)
        assert np.array_equal(keyed.cnt, miss.cnt)

        dense = np.unpackbits(
            rows.view(np.uint8), axis=1, bitorder="little"
        )[:, :n].astype(bool)
        # check every edge of the widest row and a sample of the rest
        hub = int(np.argmax(deg))
        rng = np.random.default_rng(0)
        sample = np.concatenate(
            (
                np.arange(eoff[hub], eoff[hub] + deg[hub]),
                rng.choice(len(eS), size=min(len(eS), 400), replace=False),
            )
        )
        for e in sample.tolist():
            v, u = int(eS[e]), int(eDf[e])
            nbrs = np.flatnonzero(dense[v])
            want = ~dense[u, nbrs]
            w = int(miss.width[v])
            got_words = miss.words[miss.off[e] : miss.off[e] + w]
            got = np.unpackbits(
                got_words.view(np.uint8), bitorder="little"
            ).astype(bool)
            assert np.array_equal(got[: len(nbrs)], want)
            assert not got[len(nbrs) :].any()  # padding bits stay clear
            assert miss.cnt[e] == want.sum()


@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_engines_match_scalar(name, scheme_name):
    adj = graph(name)
    n = len(adj)
    levels = tied_levels(n)
    scheme = SCHEMES[scheme_name]
    # near-cliques commit about one node per local-minimum round: the
    # fixed-point pass on the largest inputs adds time, not coverage
    fixed_points = (False,) if n > 100 else (False, True)
    for fixed_point in fixed_points:
        want_mask, want_stats = prune(
            adj, marked_mask(adj), scheme, list(levels),
            fixed_point=fixed_point,
        )
        dense = BatchCDSEngine(scheme_name, fixed_point=fixed_point)
        flags, stats = dense.run(pack_batch([adj]), levels[None, :])
        assert flags_to_masks(flags)[0] == want_mask
        assert stats[0] == want_stats

        csr = CSRBatch.from_adjacency([adj])
        rows_mb = n * words_for(n) * 8 / 2**20
        for word_rows, budget in ((True, None), (False, rows_mb / 2)):
            engine = SparseCDSEngine(
                scheme_name, fixed_point=fixed_point,
                memory_budget_mb=budget, dense_cutoff=2,
            )
            assert engine.word_rows_fit(1, n) is word_rows
            flags, stats = engine.run(csr, levels[None, :])
            assert flags_to_masks(flags)[0] == want_mask, (word_rows,)
            assert stats[0] == want_stats, (word_rows,)
