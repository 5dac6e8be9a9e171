"""Vectorized batch CDS engine over stacked ``(trials, nodes, words)`` arrays.

The scratch pipeline (:func:`repro.core.cds.compute_cds`) and the delta
pipeline (:mod:`repro.core.delta`) both walk Python-int bitmasks node by
node somewhere on their hot path, which caps them near N≈1000.  This module
re-expresses the whole per-interval computation — marking process, Rule 1,
Rule 2 rounds, and the Rule-k generalization — as numpy kernels over packed
``uint64`` word matrices, with an explicit *batch* axis so many independent
topologies (trials of a sweep cell, cells of a figure) evaluate in one
array pass.

Layout
------
A batch of ``B`` topologies on ``n`` nodes is a ``(B, n, W)`` ``uint64``
array with ``W = max(1, ceil(n / 64))`` little-endian words per row and
**all padding bits zero** (the pack helpers enforce this; see
:func:`tail_mask`).  Kernels flatten it to ``(B*n, W)`` and address node
``v`` of element ``b`` as flat row ``b*n + v`` — edges never cross
elements, so one edge table drives every element at once.  Memory is
``B·n·W·8`` bytes: a hundred 1k-node trials is ~13 MB; at n = 10k the
batch width is chosen by the caller (a single element is ~1.3 MB).

Equivalence contract
--------------------
For every element the gateway mask and :class:`PruneStats` are
**bit-identical** to ``compute_cds`` under the same scheme:

* marking: ``v`` is marked iff some neighbor ``u`` leaves
  ``N(v) \\ N[u]`` non-empty (per-directed-edge witness test);
* Rule 1: simultaneous pass against a snapshot — ``v`` unmarks iff a
  *marked* neighbor ``u`` has ``N[v] ⊆ N[u]`` and ``key(v) < key(u)``;
* Rule 2: the removals of :meth:`repro.core.rules.RuleEngine.rule2_pass`'s
  iterated local-minimum rounds, committed as settled sets — candidates
  are marked nodes with a live firing pair, and a round commits every
  candidate whose fate those rounds have already settled (DESIGN §1), so
  it takes at most as many rounds;
* keys compare as dense integer ranks built by ``np.lexsort`` over the
  exact quantized components the tuple keys contain (the same construction
  :class:`repro.core.delta.CachedRuleEngine` uses), so every comparison
  equals the scratch engine's tuple comparison.

Scale tricks (what makes n = 10k feasible)
------------------------------------------
The raw Rule-2 triple table is ``Σ_v deg(v)·(deg(v)-1)/2`` entries (~1.9M
at n = 10k constant-density), and every test on it is one AND of two
masks built in one pass over the edge table
(:meth:`BatchCDSEngine._edge_miss`): ``M[v→u] = N(v) \\ N(u)`` over
``v``'s *local neighbour index* (bit ``p`` is ``v``'s ``p``-th neighbour).
``u ∈ M[v→u]`` always, so *marking* is ``|M[v→u]| ≥ 2``, *Rule-1
coverage* ``N[v] ⊆ N[u]`` is ``|M[v→u]| == 1``, *Rule-2 coverage*
``N(v) ⊆ N(u) ∪ N(w)`` is ``M[v→u] & M[v→w] == 0`` (it implies
``u ~ w``: ``w ∈ N(v)`` needs covering and ``w ∉ N(w)``), and the
el1/el2 *mutual coverage* ``N(u) ⊆ N(v) ∪ N(w)`` is ``M[u→v] & M[u→w]
== 0`` (``u→v`` by the reverse-edge permutation, ``u→w`` by one
``searchsorted`` on the edge keys).  Both sides of an AND leave one node,
so they share its width: the table is ragged, ``words_for(deg(v))``
words per edge of ``v`` (``Σ_v deg(v)·⌈deg(v)/64⌉`` in all, one per edge
at constant density), and only queries on rows wider than one word take
a second pass (:meth:`_EdgeMasks.disjoint`).  Most marked pairs cannot
cover, and a word-wise witness filter over the same masks drops them
before any test (:func:`_witness_pairs`).

One kernel set, two probes
--------------------------
The masks are the only adjacency question any kernel asks, through one
probe (:class:`_Probe`: is local node ``cols[k]`` in ``N(rows[k])``? as
``uint64`` 0/1, with each edge's row scaled once).  Here it is a
single-word gather from the packed rows (:func:`_word_probe`); the sparse
engine's big-component tier (:mod:`repro.core.sparse`) passes the same
gather over word rows it packs from its edges when they fit the memory budget,
and a binary search over sorted edge keys beyond it, and runs these same
kernels and the same round loop (:meth:`BatchCDSEngine._prune`), with
connected components in place of batch elements as the groups that
count rounds and freeze.

Kernels in visit order
----------------------
On an edge list (a network's topology in :class:`VectorizedCDSPipeline`,
the sparse big tier) the kernels run with the nodes renumbered in a
breadth-first visit order and map the flags back afterwards
(:meth:`BatchCDSEngine._run_visit_order`): a row's neighbours then get
nearby ids, so the probe's gathers stay in cache instead of spanning the
whole ``n × W`` row table.  Ranks are built from the input ids and
permuted, so every tie-break, mask and count is unchanged except
``rule2.pair_tests`` (the witness filter reads members in local bit
order).  The packed-row path (:meth:`BatchCDSEngine.run`) keeps the
input ids.

Streamed in cache-sized blocks
------------------------------
Every expansion (the miss-mask pass of :meth:`BatchCDSEngine._edge_miss`
and the witness-filtered pair runs of :func:`_witness_pairs`) streams
in blocks of ``min(chunk_words(memory_budget_mb), CACHE_BLOCK)`` members,
so each of the dozen numpy temporaries a block makes stays in a core's
L2 cache instead of round-tripping through memory; the budget still caps
every block from above, so peak temporary memory stays bounded whatever
n is.  The Python loops that remain iterate over *blocks* and Rule-2
*rounds*, never over nodes, and each round scans only the worklist the
previous one left (:meth:`BatchCDSEngine._rule2`).
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.core.cds import CDSResult, shadow_check
from repro.core.marking import marking_trivially_empty
from repro.core.priority import SCHEMES, PriorityScheme, scheme_by_name
from repro.core.properties import verify_cds
from repro.core.reduction import PruneStats
from repro.errors import ConfigurationError
from repro.graphs.unitdisk import (
    _U64_1,
    _U64_63,
    _word_rows,
    bfs_order,
    edge_table,
    pair_index_arrays,
    popcount_rows,
)

__all__ = [
    "words_for",
    "tail_mask",
    "pack_rows",
    "pack_adjacency",
    "pack_batch",
    "popcount_rows",
    "pair_index_arrays",
    "flags_to_masks",
    "edge_table",
    "resolve_memory_budget_mb",
    "chunk_words",
    "chunk_bits",
    "CACHE_BLOCK",
    "MEMORY_BUDGET_ENV",
    "DEFAULT_MEMORY_BUDGET_MB",
    "BatchCDSEngine",
    "compute_cds_batch",
    "compute_cds_rule_k_batch",
    "VectorizedCDSPipeline",
]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: env var overriding the per-engine chunking budget (megabytes, float).
MEMORY_BUDGET_ENV = "REPRO_MEMORY_BUDGET_MB"
#: default budget.  ``chunk_words``/``chunk_bits`` at this value reproduce
#: the historical hardcoded constants exactly (32 MiB of gathered uint64
#: words per sweep chunk, 64 Mib of row bits per edge-table chunk).
DEFAULT_MEMORY_BUDGET_MB = 64.0


def resolve_memory_budget_mb(explicit: float | None = None) -> float:
    """Chunking budget in MB: explicit arg > env var > default.

    The budget bounds each streamed chunk's temporaries (``chunk_words``,
    ``chunk_bits``) and sizes the dense sub-batches of the sparse engine;
    the shared kernels' blocks are sized by the fixed cache block
    (:data:`CACHE_BLOCK`) and only capped by the budget when it is
    smaller.  It
    also decides the sparse big tier's membership probe: packed word rows
    of ``B·n·⌈n/64⌉·8`` bytes are built for one engine call only when
    they fit the budget (12.5 MB at n = 10k), and the probe otherwise
    searches the sorted edge keys, which need no rows
    (:meth:`repro.core.sparse.SparseCDSEngine.word_rows_fit`).  The rows
    are one more budget-sized buffer beside the chunk temporaries.  The
    per-edge miss-mask table the kernels keep for a whole call is not
    budgeted: it is ``Σ_v deg(v)·⌈deg(v)/64⌉`` words (about one word per
    edge at constant density, 1.5 MB at n = 10k), the same order as the
    edge arrays themselves.
    """
    if explicit is None:
        raw = os.environ.get(MEMORY_BUDGET_ENV)
        if raw is not None:
            try:
                explicit = float(raw)
            except ValueError:
                raise ConfigurationError(
                    f"{MEMORY_BUDGET_ENV}={raw!r} is not a number"
                ) from None
    if explicit is None:
        return DEFAULT_MEMORY_BUDGET_MB
    if not explicit > 0:
        raise ConfigurationError(
            f"memory_budget_mb must be positive, got {explicit!r}"
        )
    return float(explicit)


def chunk_words(budget_mb: float | None = None) -> int:
    """Gathered-word budget per chunked sweep (the old ``_CHUNK_WORDS``).

    Scales linearly with the budget; floored so degenerate budgets still
    make progress (tiny chunks change only speed, never results).
    """
    mb = resolve_memory_budget_mb(budget_mb)
    return max(1 << 12, int(mb * (1 << 22) / DEFAULT_MEMORY_BUDGET_MB))


def chunk_bits(budget_mb: float | None = None) -> int:
    """Bit budget per edge-table chunk: ``edge_table`` peels ``bits >> 6``
    words per chunk (the old ``_CHUNK_BITS``)."""
    mb = resolve_memory_budget_mb(budget_mb)
    return max(1 << 15, int(mb * (1 << 26) / DEFAULT_MEMORY_BUDGET_MB))


#: members per streamed block of the shared kernels, whatever the budget
#: allows: 64 Ki int64/uint64 elements are 512 KiB per temporary, so a
#: block's working set stays in a 2 MiB per-core L2 cache.  Budget-sized
#: 4 Mi-element blocks spilled every temporary to memory and ran the
#: miss-mask and triple passes about 1.7x slower at N = 4000 (DESIGN §10).
CACHE_BLOCK = 1 << 16


def words_for(n: int) -> int:
    """Words per packed row for an ``n``-node graph (min 1, like delta)."""
    return max(1, (n + 63) >> 6)


def tail_mask(n: int) -> np.uint64:
    """Mask of the *valid* bits in the last word of an ``n``-bit row.

    For ``n`` a multiple of 64 (and for n = 0, where the single word is
    all padding but always zero) the whole word is valid.  Every pack
    helper ANDs the last word with this so stray high bits can never leak
    into popcounts, degree sums, or coverage verdicts — the tail-word
    hygiene the bitset edge-case sweep pins at n ∈ {63, 64, 65, 127}.
    """
    r = n & 63
    if r == 0:
        return _ALL_ONES
    return np.uint64((1 << r) - 1)


def pack_rows(rows: Sequence[int], W: int, n: int | None = None) -> np.ndarray:
    """Bitmask ints -> ``(len(rows), W)`` little-endian uint64 matrix.

    A writable array (unlike ``np.frombuffer``).  When ``n`` is given the
    last word is masked to the valid ``n``-bit range; ``int.to_bytes``
    already rejects masks with bits at or beyond ``64·W``.
    """
    if not len(rows):
        return np.zeros((0, W), dtype=np.uint64)
    raw = b"".join(m.to_bytes(W * 8, "little") for m in rows)
    out = np.frombuffer(raw, dtype=np.uint64).reshape(len(rows), W).copy()
    if n is not None:
        out[:, -1] &= tail_mask(n)
    return out


def pack_adjacency(adj: Sequence[int]) -> np.ndarray:
    """One adjacency (list of bitmask ints) -> tail-clean ``(n, W)`` words."""
    n = len(adj)
    return pack_rows(adj, words_for(n), n)


def pack_batch(adjacencies: Sequence[Sequence[int]]) -> np.ndarray:
    """Stack ``B`` same-size adjacencies into a ``(B, n, W)`` batch."""
    B = len(adjacencies)
    if B == 0:
        return np.zeros((0, 0, 1), dtype=np.uint64)
    n = len(adjacencies[0])
    W = words_for(n)
    for k, adj in enumerate(adjacencies):
        if len(adj) != n:
            raise ConfigurationError(
                f"batch element {k} has {len(adj)} nodes, element 0 has {n}; "
                "batches must be homogeneous in n"
            )
    out = np.empty((B, n, W), dtype=np.uint64)
    for k, adj in enumerate(adjacencies):
        out[k] = pack_rows(adj, W, n)
    return out


def flags_to_masks(flags: np.ndarray) -> list[int]:
    """``(B, n)`` boolean flags -> per-element bitmask ints."""
    if flags.shape[1] == 0:
        return [0] * flags.shape[0]
    packed = np.packbits(flags, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class _Probe(NamedTuple):
    """Membership probe: is local node ``cols[k]`` in ``N(rows[k])``?

    ``member(base, cols)[k]`` answers it as a ``uint64`` 0 or 1, where
    ``base[k] = rows[k] * scale``: the caller scales each edge's row once
    and repeats it over the edge's members, and ``member`` may overwrite
    ``base``.  :meth:`BatchCDSEngine._edge_miss` is the only caller.
    """

    scale: int
    member: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _word_probe(rows_flat: np.ndarray) -> _Probe:
    """Probe over packed word rows: one single-word gather per query.

    The sparse engine's big tier uses it over rows it packs from its
    edges, or a sorted-edge-key probe when those rows would not fit the
    memory budget (:func:`_key_probe`).
    """
    W = rows_flat.shape[1]
    flat = rows_flat.reshape(-1)

    def member(base: np.ndarray, cols: np.ndarray) -> np.ndarray:
        base += cols >> 6  # the word index
        words = flat[base]
        words >>= cols.view(np.uint64) & _U64_63
        words &= _U64_1
        return words

    return _Probe(W, member)


def _key_probe(keys: np.ndarray, n: int) -> _Probe:
    """Membership probe over sorted edge keys.

    ``keys`` is the sorted ``eS·n + eD`` array of the (sub)graph's edges,
    so a query's scaled row plus its column is its key: ``member`` answers
    ``uint64`` 1 when the key is one of them and 0 otherwise — a binary
    search per query, the stand-in for the word gather
    (:func:`_word_probe`) when the rows would not fit the budget.
    ``searchsorted`` returning ``len(keys)`` means the query exceeds
    every key, so clamping to the last slot compares unequal — no
    branch needed.
    """

    def member(base: np.ndarray, cols: np.ndarray) -> np.ndarray:
        if len(keys) == 0:
            return np.zeros(len(base), dtype=np.uint64)
        base += cols  # the query key
        idx = np.searchsorted(keys, base)
        np.minimum(idx, len(keys) - 1, out=idx)
        return (keys[idx] == base).astype(np.uint64)

    return _Probe(n, member)


def _visit_order(deg, fdst, roots, B: int, n: int) -> np.ndarray:
    """A visit order for flat rows that come without one.

    :func:`repro.graphs.unitdisk.bfs_order` over the CSR of ``deg`` and
    the flat destinations ``fdst``, seeded with ``roots`` (one per
    component), then the rows it never reached, ascending.  With
    ``B > 1`` each element's rows are gathered into its own block of
    ``n`` ids, each keeping its visit order, as :func:`_relabel` needs.
    """
    R = B * n
    indptr = np.zeros(R + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    order = bfs_order(indptr, fdst, roots)
    if len(order) < R:
        left = np.ones(R, dtype=bool)
        left[order] = False
        order = np.concatenate([order, np.flatnonzero(left)])
    if B > 1:
        order = order[np.argsort(order // n, kind="stable")]
    return order


def _relabel(order, deg, fdst, B: int, n: int):
    """Sorted edge arrays after renumbering flat row ``order[i]`` to ``i``.

    ``deg`` counts each row's edges and ``fdst`` holds their flat
    destinations in ascending ``(source, destination)`` order; ``order``
    must map each element's rows into that element's own ids (any
    permutation when ``B = 1``).  The new keys ``eS·n + eD`` are built
    per edge and sorted in place, and the sources are never materialized
    in the old ids.  Returns ``(inv, eS, eD, eDf, keys)``: the new id of
    every old row, then the kernels' edge arrays under the new ids and
    their sorted keys (which serve as the key probe).
    """
    R = B * n
    inv = np.empty(R, dtype=np.int64)
    inv[order] = np.arange(R, dtype=np.int64)
    keys = inv[fdst]
    if B > 1:
        keys %= n  # local ids: every row stays in its element
    src = np.repeat(inv, deg)
    src *= n
    keys += src
    del src
    keys.sort()
    eS = keys // n
    eD = eS * n
    np.subtract(keys, eD, out=eD)
    eDf = eD if B == 1 else eS - eS % n + eD
    return inv, eS, eD, eDf, keys


def _blocks(counts: np.ndarray, budget: int):
    """Cut segments of sizes ``counts`` into runs ``(lo, hi)``.

    Cuts fall on the cumulative counts, so a run holds at most
    ``budget`` members, or one whole segment that is bigger on its own.
    """
    K = len(counts)
    cum = np.cumsum(counts)
    lo = 0
    while lo < K:
        cap = cum[lo] - counts[lo] + budget
        hi = max(lo + 1, int(np.searchsorted(cum, cap, side="right")))
        yield lo, hi
        lo = hi


def _expand(counts: np.ndarray, budget: int):
    """Chunked expansion of segments of sizes ``counts`` into members.

    Yields ``(lo, hi, within)`` per run of :func:`_blocks`: the chunk's
    members in segment order, ``within[k]`` being member ``k``'s position
    in its segment.
    """
    for lo, hi in _blocks(counts, budget):
        cnt = counts[lo:hi]
        within = np.arange(int(cnt.sum()), dtype=np.int64)
        within -= np.repeat(np.cumsum(cnt) - cnt, cnt)
        yield lo, hi, within


def _scatter_any(hits: np.ndarray, size: int) -> np.ndarray:
    """Boolean "any hit per row" from a flat array of row indices."""
    if len(hits) == 0:
        return np.zeros(size, dtype=bool)
    return np.bincount(hits, minlength=size).astype(bool)


#: set-bit positions of every byte value, eight slots per byte (zero
#: padded), and the byte values' popcounts
_BYTE_BITS = np.array(
    [[p for p in range(8) if b >> p & 1] + [0] * (8 - bin(b).count("1"))
     for b in range(256)],
    dtype=np.int64,
).reshape(-1)
_BYTE_POP = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def _peel(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(k, p)`` for every set bit ``p`` of ``words[k]``, ascending.

    Decoded bytewise: each nonzero byte's set bits come from one table
    row, so the work is the bytes plus the set bits, with no per-bit
    loop.
    """
    raw = words.astype("<u8", copy=False).view(np.uint8)
    at = np.flatnonzero(raw)
    byte = raw[at]
    c = _BYTE_POP[byte]
    at = np.repeat(at, c)
    slot = np.repeat(byte.astype(np.int64) * 8 - (np.cumsum(c) - c), c)
    slot += np.arange(len(at))
    return at >> 3, (at & 7) * 8 + _BYTE_BITS[slot]


def _witness_pairs(miss, eS, sel, budget):
    """Pairs of marked neighbours of ``v`` that may cover ``N(v)``.

    ``sel`` holds the edges between marked nodes in edge order.  ``w``
    can cover for ``(v, u)`` only if it is adjacent to every member of
    ``M[v→u]``; in ``v``'s local bits, ``w``'s bit is clear in
    ``M[v→x]`` for each member ``x``.  So each edge ``(v→u)`` ANDs, word
    by word from ``u``'s word on, ``~M[v→u]``, ``~M[v→x]`` for the two
    lowest members ``x ≠ u`` in ``u``'s word, the row's marked-neighbour
    bits and the bits above ``u``, and peels what survives.  Edges
    stream in runs of at most ``budget`` candidate pairs (the marked
    neighbours after ``u``), or one edge that has more.  Yields per run
    the edges' candidate counts and the ``(v, edge (v→u), edge (v→w))``
    arrays of the surviving pairs.  Rows wider than a word take the
    same path, each edge spread over its words from ``u``'s on.
    """
    if not len(sel):
        return
    src = eS[sel]
    mdeg = np.bincount(src, minlength=len(miss.width))
    pos = sel - miss.start[src]  # u's bit in v's local index
    # marked-neighbour bits per row, ragged like the masks
    rstart = np.cumsum(miss.width) - miss.width
    slot = rstart[src] + (pos >> 6)
    heads = np.flatnonzero(np.diff(slot, prepend=-1))
    mbits = np.zeros(int(miss.width.sum()), dtype=np.uint64)
    mbits[slot[heads]] = np.bitwise_or.reduceat(
        _U64_1 << (pos.view(np.uint64) & _U64_63), heads
    )
    after = np.cumsum(mdeg)[src] - 1 - np.arange(len(sel))
    live = after > 0
    sel, pos, after, slot = sel[live], pos[live], after[live], slot[live]
    words, off = miss.words, miss.off
    for lo, hi in _blocks(after, budget):
        e, pu = sel[lo:hi], pos[lo:hi]
        row0, ku = e - pu, pu >> 6  # v's first edge, u's word
        a0 = off[e] + ku  # M[v→u]'s word holding u
        bit = _U64_1 << (pu.view(np.uint64) & _U64_63)
        mx = words[a0] ^ bit  # members besides u in that word
        x1 = np.where(mx != 0, mx & (~mx + _U64_1), bit)
        x2 = mx ^ x1
        x2 = np.where(x2 != 0, x2 & (~x2 + _U64_1), x1)
        # a member's edge is v's first edge plus its local index: its
        # bit's position in the word, plus 64 per word before u's
        word0 = row0 + (ku << 6)
        a1 = off[word0 + popcount_rows((x1 - _U64_1)[:, None])] + ku
        a2 = off[word0 + popcount_rows((x2 - _U64_1)[:, None])] + ku
        if miss.wide:
            nu = miss.width[eS[e]] - ku  # words from u's on
            first = np.cumsum(nu) - nu
            edge = np.repeat(np.arange(hi - lo), nu)
            d = np.arange(len(edge)) - first[edge]

            def spread(a):
                return a[edge] + d
        else:
            first = edge = np.arange(hi - lo)

            def spread(a):
                return a

        m = words[spread(a0)]
        m |= words[spread(a1)]
        m |= words[spread(a2)]
        np.invert(m, out=m)
        m &= mbits[spread(slot[lo:hi])]
        m[first] &= ~(bit | (bit - _U64_1))  # w above u
        unit, p = _peel(m)
        i = edge[unit]
        w = row0[i] + (spread(ku)[unit] << 6) + p
        yield after[lo:hi], eS[e[i]], e[i], w


class _EdgeMasks(NamedTuple):
    """Ragged miss masks: edge ``e``'s ``width[eS[e]]`` words at ``off[e]``,
    ``cnt[e]`` bits set (:meth:`BatchCDSEngine._edge_miss`); bit ``p`` is
    the neighbour at edge ``start[eS[e]] + p``."""

    cnt: np.ndarray
    words: np.ndarray
    off: np.ndarray
    width: np.ndarray  # per source row
    start: np.ndarray  # per source row: its first edge
    wide: bool  # some row has more than 64 neighbours

    def disjoint(self, src, ea, eb) -> np.ndarray:
        """``M[ea[k]] & M[eb[k]] == 0``; both edges leave row ``src[k]``,
        so both masks have its width.  Words past the first are ANDed
        only for the still-disjoint queries of rows that have them."""
        a, b = self.off[ea], self.off[eb]
        out = (self.words[a] & self.words[b]) == 0
        if not self.wide:
            return out
        w = self.width[src]
        rest, j = np.flatnonzero(w > 1), 1
        while len(rest):
            out[rest] &= (self.words[a[rest] + j] & self.words[b[rest] + j]) == 0
            j += 1
            rest = rest[out[rest] & (w[rest] > j)]
        return out


class BatchCDSEngine:
    """Batched marking + Rule 1/2 engine, bit-identical to ``compute_cds``.

    One instance is bound to a scheme and the fixed-point mode; ``run``
    takes a fresh ``(B, n, W)`` batch each call (the engine is stateless
    across calls — unlike :class:`~repro.core.delta.CachedRuleEngine` it
    wins by width, not by reuse).
    """

    def __init__(
        self,
        scheme: str | PriorityScheme = "id",
        *,
        fixed_point: bool = False,
        max_rounds: int = 1_000,
        memory_budget_mb: float | None = None,
    ):
        self.scheme = (
            scheme_by_name(scheme) if isinstance(scheme, str) else scheme
        )
        self.fixed_point = fixed_point
        self.max_rounds = max_rounds
        self.memory_budget_mb = resolve_memory_budget_mb(memory_budget_mb)
        # kernel blocks: cache-sized, capped by the budget
        self._block = min(chunk_words(self.memory_budget_mb), CACHE_BLOCK)
        self._chunk_bits = chunk_bits(self.memory_budget_mb)
        # registry schemes rank via one batched lexsort; a custom key_fn
        # falls back to exact per-element tuple keys
        self._fast_keys = SCHEMES.get(self.scheme.name) is self.scheme

    # -- structure ---------------------------------------------------------

    def _ranks(
        self,
        deg_flat: np.ndarray,
        energy: np.ndarray | None,
        B: int,
        n: int,
    ) -> np.ndarray:
        """Per-element dense ranks whose order equals the tuple-key order.

        Same construction as ``CachedRuleEngine._refresh_keys``: lexsort
        the exact quantized key components with the element index as the
        most significant key, then invert to local positions — one sort
        for the whole batch.
        """
        ids_flat = np.tile(np.arange(n, dtype=np.int64), B)
        name = self.scheme.name
        if not self._fast_keys:
            # generic scheme: exact tuple keys, one sort per element
            rank = np.empty(B * n, dtype=np.int32)
            for b in range(B):
                degs = [int(d) for d in deg_flat[b * n : (b + 1) * n]]
                lv = energy[b] if energy is not None else None
                keys = self.scheme.keys(degs, lv)
                order = sorted(range(n), key=keys.__getitem__)
                rank[b * n + np.asarray(order, dtype=np.int64)] = np.arange(
                    n, dtype=np.int32
                )
            return rank
        if name in ("nr", "id"):
            return ids_flat.astype(np.int32)
        elem = np.repeat(np.arange(B, dtype=np.int64), n)
        qe = None
        if self.scheme.needs_energy:
            qe = self.scheme.quantized_levels(energy).reshape(B * n)
        cols = self.scheme.key_columns(ids_flat, deg_flat, qe)
        order = np.lexsort(cols + (elem,))
        rank = np.empty(B * n, dtype=np.int32)
        rank[order] = ids_flat.astype(np.int32)
        return rank

    # -- kernels (shared with the sparse engine's big tier) ----------------
    #
    # ``probe`` is the membership probe (:class:`_Probe`), used by
    # ``_edge_miss`` only; edge arrays
    # ``(eS, eD, eDf)`` are in ascending (source, destination) order, and
    # ``eoff``/``deg`` index each source's run of edges.

    def _edge_miss(self, probe, eD, eoff, deg, eS, eDf) -> "_EdgeMasks":
        """Per-directed-edge miss masks ``M[v→u] = N(v) \\ N(u)``.

        One expansion pass over the edge table, the probe's only caller.
        Bit ``p`` of ``M[v→u]`` is ``v``'s ``p``-th neighbour in
        edge-table order, in ``words_for(deg(v))`` words per edge.
        ``u`` itself is always a member (``u ∈ N(v)``, ``u ∉ N(u)``), so:

        * ``cnt == 1`` ⟺ ``N[v] ⊆ N[u]`` (Rule-1 closed coverage);
        * ``cnt >= 2`` ⟺ ``u`` certifies ``v``'s marking (some other
          neighbor of ``v`` is unreachable from ``u`` in one hop).

        When no row is wide every edge packs into one word, so a block's
        cuts are its edges' starts and the counts are the words'
        popcounts.
        """
        width = (deg + 63) >> 6  # words per edge of each source row
        wide = bool((width > 1).any())
        ew = width[eS]
        off = np.cumsum(ew) - ew
        words = np.empty(int(ew.sum()), dtype=np.uint64)
        seg = deg[eS]
        for lo, hi, within in _expand(seg, self._block):
            cnt = seg[lo:hi]
            xs = eD[np.repeat(eoff[eS[lo:hi]], cnt) + within]  # N(v)
            bits = probe.member(np.repeat(eDf[lo:hi] * probe.scale, cnt), xs)
            del xs
            bits ^= _U64_1  # 1 where x ∉ N(u)
            if wide:
                within &= 63
                cut = np.flatnonzero(within == 0)
            else:
                cut = np.cumsum(cnt) - cnt
            bits <<= within.view(np.uint64)
            # each edge's run of members packs into its own words
            w0 = off[lo]
            words[w0 : w0 + len(cut)] = np.bitwise_or.reduceat(bits, cut)
        pop = popcount_rows(words[:, None])
        if wide:
            pop = np.add.reduceat(pop, off) if len(off) else off
        return _EdgeMasks(pop, words, off, width, eoff, wide)

    def _rule1(self, eS, eDf, misscnt, marked, rank) -> np.ndarray:
        """Simultaneous Rule-1 pass: pure arithmetic on the miss counts."""
        sel = (
            marked[eS]
            & marked[eDf]
            & (rank[eS] < rank[eDf])
            & (misscnt == 1)
        )
        removed = _scatter_any(eS[sel], len(marked))
        return marked & ~removed

    def _firing_triples(self, miss, rev, keys, eS, eDf, marked, rank):
        """All firing triples ``(v, u, w)`` of the current marked set.

        Returns flat arrays ``(fV, fUf, fWf)``: a triple fires iff its
        coverage + case analysis + key comparison already favor removing
        ``v`` — whether it is *live* is then only a markedness check, just
        like the scratch engine's precomputed pair masks.  Only the pairs
        that pass the witness filter (:func:`_witness_pairs`) take the
        exact coverage test, streamed in blocks of at most ``_block``
        candidate pairs (or one edge that has more).
        """
        R = len(marked)
        empty = np.empty(0, dtype=np.int64)
        sel = np.flatnonzero(marked[eS] & marked[eDf])  # by source
        parts = [(empty, empty, empty)]
        total = n_tested = n_covered = 0
        for bound, tV, gU, gW in _witness_pairs(miss, eS, sel, self._block):
            total += int(bound.sum())
            n_tested += len(tV)
            # N(v) ⊆ N(u) ∪ N(w) ⟺ M[v→u] ∩ M[v→w] = ∅; it implies
            # u ~ w (w ∈ N(v) needs covering and w ∉ N(w))
            cov = miss.disjoint(tV, gU, gW)
            cV, gU, gW = tV[cov], gU[cov], gW[cov]
            n_covered += len(cV)
            cUf, cWf = eDf[gU], eDf[gW]
            rv = rank[cV]
            lu = rv < rank[cUf]
            lw = rv < rank[cWf]
            if self.scheme.uses_coverage_cases:
                # collapse of the paper's case table (cf. delta._eval_fire):
                # the u-side key test is waived exactly when u is not
                # mutually covered, N(u) ⊄ N(v) ∪ N(w) ⟺ M[u→v] ∩ M[u→w]
                # ≠ ∅; symmetrically for w.  (u→w) is found by its key,
                # searched in ascending order (each search starts where
                # the one before it ended)
                q = cUf * R + cWf
                order = np.argsort(q)
                gUW = np.empty_like(order)
                gUW[order] = np.searchsorted(keys, q[order])
                lu |= ~miss.disjoint(cUf, rev[gU], gUW)
                lw |= ~miss.disjoint(cWf, rev[gW], rev[gUW])
            fire = lu & lw
            parts.append((cV[fire], cUf[fire], cWf[fire]))
        fV, fUf, fWf = map(np.concatenate, zip(*parts))
        if obs.enabled():
            # the scalar engine's names: one primary test per pair; the
            # pairs the filter left for the exact test are pair_tests
            obs.add("rule2.coverage_tests", total)
            obs.add("rule2.pair_tests", n_tested)
            obs.add("rule2.covered_triples", n_covered)
            obs.add("rule2.firing_pairs", len(fV))
        return fV, fUf, fWf

    def _rule2(self, miss, rev, keys, eS, eDf, marked, rank):
        """One Rule-2 pass: settled-set commit rounds over every group.

        Removes exactly what the scalar engine's local-minimum rounds
        remove, which is what one pass over the candidates in ascending
        rank removes (DESIGN §1).  A candidate is a marked node with a
        live firing triple, and a triple is *safe* when neither ``u``
        nor ``w`` is a candidate ranked below ``v``.  Each round commits
        the largest candidate set ``S`` such that (i) every member has a
        safe live triple and (ii) a member that sits in a live triple of
        a lower-ranked candidate brings that candidate into ``S``: start
        from the candidates with a safe triple and drop the ones that
        break (ii) until none do.  (i) makes each member a removal of
        the ascending pass, (ii) keeps every undecided lower-ranked
        candidate seeing what that pass shows it, and ``S`` holds every
        local minimum, so there are never more rounds than the scratch
        engine's.  Removals never create candidates, so each round hands
        the next only the triples that are still live.
        """
        R = len(marked)
        with obs.span("rule2_triples"):
            fV, fUf, fWf = self._firing_triples(
                miss, rev, keys, eS, eDf, marked, rank
            )
        current = marked
        cand0 = cand = _scatter_any(fV, R)  # every initial triple is live
        rounds = scanned = 0
        if len(fV):
            with obs.span("rule2_rounds"):
                current = marked.copy()
                while len(fV):
                    rounds += 1
                    scanned += len(fV)
                    rv = rank[fV]
                    up_u, up_w = rank[fUf] > rv, rank[fWf] > rv
                    safe = (up_u | ~cand[fUf]) & (up_w | ~cand[fWf])
                    settled = _scatter_any(fV[safe], R)
                    held = ~settled[fV]  # triples of unsettled candidates
                    while True:
                        pin = np.concatenate(
                            (fUf[held & up_u], fWf[held & up_w])
                        )
                        pin = pin[settled[pin]]
                        if not len(pin):
                            break
                        settled[pin] = False
                        dropped = np.zeros(R, dtype=bool)
                        dropped[pin] = True
                        held = dropped[fV]
                    if not settled.any():  # pragma: no cover - minima settle
                        break
                    current &= ~settled
                    keep = current[fV] & current[fUf] & current[fWf]
                    fV, fUf, fWf = fV[keep], fUf[keep], fWf[keep]
                    cand = _scatter_any(fV, R)
        if obs.enabled():
            # the scalar engine's names; its candidate_rounds are
            # local-minimum rounds, these the commit rounds
            obs.add("rule2.candidates_initial", int(cand0.sum()))
            obs.add("rule2.candidate_rounds", rounds)
            obs.add("rule2.removed", int((marked & ~current).sum()))
            obs.add("rule2.worklist_triples", scanned)
        return current

    def _prune(self, miss, eS, eDf, marked, rank, group_of, active, keys=None):
        """Rule 1 + Rule 2 rounds until every group is frozen.

        A *group* is a batch element (dense engine) or a connected
        component (sparse engine); ``group_of`` maps flat rows to groups
        and ``active`` says which groups take part (the others must own
        no edges).  Rounds count per group while it is active; a group
        freezes once a round leaves it unchanged, after one round unless
        ``fixed_point``, or at ``max_rounds``, so per-group stats equal
        the scalar reference loop's.  A frozen group needs no masking:
        groups share no edges, so a stable group stays unchanged under
        further rounds, and every group still active reaches
        ``max_rounds`` in the same round.  Returns ``(flags, rounds,
        removed_rule1, removed_rule2)``, the last three per group.
        ``keys`` are the sorted edge keys ``eS·R + eDf`` when the caller
        already holds them.
        """
        G = len(active)
        active = active.copy()
        rounds = np.zeros(G, dtype=np.int64)
        removed1 = np.zeros(G, dtype=np.int64)
        removed2 = np.zeros(G, dtype=np.int64)

        def per_group(flags: np.ndarray) -> np.ndarray:
            return np.bincount(group_of[np.flatnonzero(flags)], minlength=G)

        # reverse-edge permutation: rev[k] is the edge (u→v) for edge
        # k = (v→u), the rank of the swapped key eDf·R + eS (keys are
        # distinct, so any sort gives the same permutation);
        # keys[k] = eS·R + eDf ascends with the edge id
        R = len(marked)
        rev = np.argsort(eDf * R + eS)
        if keys is None:
            keys = eS * R + eDf
        current = marked
        while active.any():
            rounds += active
            with obs.span("rule1"):
                after1 = self._rule1(eS, eDf, miss.cnt, current, rank)
            after2 = self._rule2(miss, rev, keys, eS, eDf, after1, rank)
            removed1 += per_group(current & ~after1)
            removed2 += per_group(after1 & ~after2)
            active &= per_group(current ^ after2) > 0
            current = after2
            if not self.fixed_point:
                break
            active &= rounds < self.max_rounds
        return current, rounds, removed1, removed2

    # -- driver ------------------------------------------------------------

    def run(
        self, packed: np.ndarray, energy: np.ndarray | None = None
    ) -> tuple[np.ndarray, list[PruneStats]]:
        """Marking + pruning for every batch element.

        ``packed`` is ``(B, n, W)`` tail-clean uint64; ``energy`` is
        ``(B, n)`` float (required by the EL schemes).  Returns the
        ``(B, n)`` gateway flags and one :class:`PruneStats` per element,
        both bit-identical to running ``compute_cds`` per element.
        """
        if packed.ndim != 3:
            raise ConfigurationError(
                f"packed batch must be (B, n, W), got shape {packed.shape}"
            )
        B, n, W = packed.shape
        if W != words_for(n):
            raise ConfigurationError(
                f"batch has {W} words for n={n}, expected {words_for(n)}"
            )
        uses_rules = self.scheme.uses_rules
        if B == 0 or n == 0:
            rounds = 1 if uses_rules else 0
            return (
                np.zeros((B, n), dtype=bool),
                [PruneStats(0, 0, 0, rounds)] * B,
            )

        with obs.span("cds_batch"):
            rows_flat = packed.reshape(B * n, W)
            with obs.span("edge_table"):
                eS, eD, eDf = edge_table(rows_flat, n, self._chunk_bits)
            return self._run_edges(rows_flat, eS, eD, eDf, energy, B, n)

    def _run_edges(self, rows_flat, eS, eD, eDf, energy, B, n):
        """:meth:`run` after its edge table: the kernels on the sorted
        directed edges (flat source ``eS``, local destination ``eD``, flat
        destination ``eDf``) of the packed rows ``rows_flat``, which
        serve as the membership probe."""
        deg_flat = np.bincount(eS, minlength=B * n)
        eoff = np.cumsum(deg_flat) - deg_flat  # CSR starts into eD
        with obs.span("edge_miss"):
            miss = self._edge_miss(
                _word_probe(rows_flat), eD, eoff, deg_flat, eS, eDf
            )

        # marked iff some neighbor certifies: N(v) ⊄ N[u] ⟺ |miss| ≥ 2
        marked0 = _scatter_any(eS[miss.cnt >= 2], B * n)
        if not self.scheme.uses_rules:
            return self._element_results(marked0, None, len(eS), B, n)
        rank = self._ranks(deg_flat, self._energy(energy, B, n), B, n)
        pruned = self._prune(
            miss, eS, eDf, marked0, rank,
            np.repeat(np.arange(B, dtype=np.int64), n),
            np.ones(B, dtype=bool),
        )
        return self._element_results(marked0, pruned, len(eS), B, n)

    def _run_topology(self, indptr, dst, order, energy=None):
        """:meth:`run` on one sorted edge list ``(indptr, dst)`` of ``n``
        nodes (an :class:`repro.graphs.adhoc.AdHocNetwork`'s topology),
        the kernels running in the visit order ``order``
        (:meth:`_run_visit_order`) over word rows packed from it."""
        n = len(indptr) - 1
        deg = np.diff(indptr)
        rank = None
        if self.scheme.uses_rules:
            rank = self._ranks(deg, self._energy(energy, 1, n), 1, n)
        marked0, pruned = self._run_visit_order(
            order, None, deg, dst, rank,
            np.zeros(n, dtype=np.int64), np.ones(1, dtype=bool), 1, n,
            lambda eS, eD, keys: _word_probe(_word_rows(eS, eD, n, n)),
        )
        return self._element_results(marked0, pruned, len(dst), 1, n)

    @staticmethod
    def _energy(energy, B: int, n: int) -> np.ndarray | None:
        if energy is None:
            return None
        return np.asarray(energy, dtype=np.float64).reshape(B, n)

    def _run_visit_order(
        self, order, roots, deg, fdst, rank, group_of, active, B, n, probe,
    ):
        """Marking and pruning with the nodes renumbered in visit order.

        Under ids in placement order a row's neighbours are scattered
        over all ``n`` ids, so the membership probe gathers from the
        whole row table; in a breadth-first visit order they sit within
        a level or two of the row, and the probe's reads stay in cache
        (DESIGN §6 "Cache-local node order").  ``deg`` and ``fdst`` are
        the edges' per-row counts and flat destinations in ascending
        ``(source, destination)`` order over ``R = B·n`` flat rows.
        ``order`` lists every flat row in visit order, each element's
        rows in its own block; when it is None one is computed from
        ``roots``, one root per component that owns edges
        (:func:`_visit_order`).  ``rank``
        (None for schemes without rules), ``group_of`` and ``active``
        are :meth:`_prune`'s, in the input ids: ranks built from the
        input ids keep every id tie-break, and a permutation changes no
        mask, count or round (only ``rule2.pair_tests``, whose witness
        filter reads the lowest members in local bit order).
        ``probe(eS, eD, keys)`` makes the membership probe from the
        renumbered edges and their sorted keys.  Returns the initial
        marks per flat row in the input ids and :meth:`_prune`'s result
        ``(flags, rounds, removed_rule1, removed_rule2)`` with the flags
        in the input ids (None without a rank).
        """
        with obs.span("relabel"):
            if order is None:
                order = _visit_order(deg, fdst, roots, B, n)
                obs.count("kernels.order_computed")
            inv, eS, eD, eDf, keys = _relabel(order, deg, fdst, B, n)
            deg = deg[order]
            group_of = group_of[order]
            if rank is not None:
                rank = rank[order]
        eoff = np.cumsum(deg) - deg
        with obs.span("edge_miss"):
            miss = self._edge_miss(
                probe(eS, eD, keys), eD, eoff, deg, eS, eDf
            )
        marked0 = _scatter_any(eS[miss.cnt >= 2], B * n)
        if rank is None:
            return marked0[inv], None
        current, *per_group = self._prune(
            miss, eS, eDf, marked0, rank, group_of, active,
            keys if B == 1 else None,
        )
        return marked0[inv], (current[inv], *per_group)

    def _element_results(self, marked0, pruned, edges, B, n):
        """``(B, n)`` flags and one :class:`PruneStats` per element from
        the initial marks per flat row and :meth:`_prune`'s result with
        the elements as groups (None: a scheme without rules)."""
        initial_b = marked0.reshape(B, n).sum(axis=1)
        if obs.enabled():
            obs.count("vcds.batches")
            obs.add("vcds.elements", B)
            obs.add("vcds.nodes", B * n)
            obs.add("vcds.edges", edges)
            obs.add("vcds.marked", int(marked0.sum()))
        if pruned is None:
            stats = [PruneStats(int(initial_b[b]), 0, 0, 0) for b in range(B)]
            return marked0.reshape(B, n), stats
        current, rounds_b, removed1_b, removed2_b = pruned
        stats = [
            PruneStats(
                int(initial_b[b]),
                int(removed1_b[b]),
                int(removed2_b[b]),
                int(rounds_b[b]),
            )
            for b in range(B)
        ]
        if obs.enabled():
            obs.add("vcds.final", int(current.sum()))
            obs.add("vcds.rounds", int(rounds_b.sum()))
        return current.reshape(B, n), stats


def _batch_inputs(adjacencies, scheme, energies):
    """``(scheme, adjacency lists, (B, n) energies or None)`` of a batch
    call; the energies are checked against the scheme and the shape."""
    sch = scheme_by_name(scheme) if isinstance(scheme, str) else scheme
    adjs = [
        list(a.adjacency) if hasattr(a, "adjacency") else list(a)
        for a in adjacencies
    ]
    if not adjs:
        return sch, adjs, None
    if sch.needs_energy and energies is None:
        raise ConfigurationError(
            f"scheme {sch.name!r} ranks by energy level; pass energies="
        )
    if energies is None:
        return sch, adjs, None
    arr = np.asarray(energies, dtype=np.float64)
    B, n = len(adjs), len(adjs[0])
    if arr.shape != (B, n):
        raise ConfigurationError(
            f"energies has shape {arr.shape} for a ({B}, {n}) batch"
        )
    return sch, adjs, arr


def _batch_results(sch, adjs, flags, stats, verify, label):
    """One :class:`CDSResult` per element, verified when asked."""
    results = []
    for b, mask in enumerate(flags_to_masks(flags)):
        if verify and (mask or not marking_trivially_empty(adjs[b])):
            verify_cds(adjs[b], mask, context=f"{label} scheme={sch.name}")
        results.append(CDSResult(sch.name, mask, len(adjs[b]), stats[b]))
    return results


def compute_cds_batch(
    adjacencies: Sequence[Sequence[int]],
    scheme: str | PriorityScheme = "id",
    energies=None,
    *,
    fixed_point: bool = False,
    verify: bool = False,
    memory_budget_mb: float | None = None,
) -> list[CDSResult]:
    """Batched :func:`repro.core.cds.compute_cds` over same-size topologies.

    ``adjacencies`` is a sequence of bitmask adjacency lists (all the same
    n); ``energies`` is per-element energy levels, shape ``(B, n)``.  Each
    returned :class:`CDSResult` is bit-identical (mask and stats) to the
    scalar facade on that element.
    """
    sch, adjs, energy_arr = _batch_inputs(adjacencies, scheme, energies)
    if not adjs:
        return []
    engine = BatchCDSEngine(
        sch, fixed_point=fixed_point, memory_budget_mb=memory_budget_mb
    )
    flags, stats = engine.run(pack_batch(adjs), energy_arr)
    return _batch_results(sch, adjs, flags, stats, verify, "vectorized")


def compute_cds_rule_k_batch(
    adjacencies: Sequence[Sequence[int]],
    scheme: str | PriorityScheme = "id",
    energies=None,
) -> list[frozenset[int]]:
    """Batched :func:`repro.core.rule_k.compute_cds_rule_k`.

    The marking pass, the stronger-neighbor edge table, the Rule-1-shape
    singleton test, and the union-coverage prefilter are batched kernels;
    only candidates whose *full* stronger-union covers ``N(v)`` fall back
    to the scalar per-component walk (they are few — almost all of them
    are genuine removals).
    """
    sch, adjs, energy_arr = _batch_inputs(adjacencies, scheme, energies)
    if not adjs:
        return []
    B, n = len(adjs), len(adjs[0])
    if n == 0:
        return [frozenset()] * B
    engine = BatchCDSEngine(sch)
    rows_flat = pack_batch(adjs).reshape(B * n, -1)
    eS, eD, eDf = edge_table(rows_flat, n, engine._chunk_bits)
    deg_flat = np.bincount(eS, minlength=B * n)
    eoff = np.cumsum(deg_flat) - deg_flat
    misscnt = engine._edge_miss(
        _word_probe(rows_flat), eD, eoff, deg_flat, eS, eDf
    ).cnt
    marked = _scatter_any(eS[misscnt >= 2], B * n)
    if not sch.uses_rules:
        flags = marked.reshape(B, n)
        return [frozenset(np.flatnonzero(flags[b]).tolist()) for b in range(B)]
    rank = engine._ranks(deg_flat, energy_arr, B, n)

    # stronger = marked neighbors with strictly higher key
    sel = marked[eS] & marked[eDf] & (rank[eDf] > rank[eS])
    sS, sDf = eS[sel], eDf[sel]
    removed = np.zeros(B * n, dtype=bool)
    if len(sS):
        # Rule-1 shape: some single stronger neighbor covers N[v], i.e.
        # the directed edge's miss list is exactly {u}
        removed = _scatter_any(sS[misscnt[sel] == 1], B * n)
        # union prefilter: no component can cover N(v) unless the union of
        # *all* stronger neighborhoods does (sS is sorted: one reduceat)
        starts = np.flatnonzero(np.diff(sS, prepend=np.int64(-1)))
        unions = np.bitwise_or.reduceat(rows_flat[sDf], starts, axis=0)
        urows = sS[starts]
        full = ~(rows_flat[urows] & ~unions).any(axis=1)
        todo = urows[full & ~removed[urows]]
        # exact per-component walk only on the survivors (scalar, but the
        # loop is over candidate removals, not over nodes)
        from repro.core.rule_k import _some_component_covers

        for r in todo.tolist():
            b, v = divmod(r, n)
            adj = adjs[b]
            stronger = 0
            for u in sDf[sS == r].tolist():
                stronger |= 1 << (u % n)
            if _some_component_covers(adj, stronger, adj[v]):
                removed[r] = True
    final = (marked & ~removed).reshape(B, n)
    return [frozenset(np.flatnonzero(final[b]).tolist()) for b in range(B)]


class VectorizedCDSPipeline:
    """Per-interval pipeline on the batched kernels (batch width 1).

    Duck-type compatible with :class:`repro.core.delta.DeltaCDSPipeline`
    (``compute(graph, energy=...)`` / ``reset()``), so
    :func:`repro.simulation.interval.run_interval` can swap it in via the
    same ``pipeline=`` socket.  Stateless across intervals: every call
    runs the full batch engine — the win is kernel width, not
    incrementality, which is the right trade at n ≳ 1000 where the
    scalar passes dominate.  A graph that keeps a sorted edge list
    (``keeps_edge_list``: an :class:`repro.graphs.adhoc.AdHocNetwork`
    above its dense cutoff) feeds the kernels its ``topology`` directly,
    renumbered in its cached ``visit_order()`` and with probe rows packed
    from it (:func:`repro.graphs.unitdisk._word_rows`), so no Python-int
    row is read unless ``verify`` or ``shadow_check`` asks for one; any
    other graph's bitmask rows are packed and decoded by
    :meth:`BatchCDSEngine.run`.
    """

    def __init__(
        self,
        scheme: str | PriorityScheme,
        *,
        fixed_point: bool = False,
        verify: bool = False,
        shadow_check: bool = False,
        memory_budget_mb: float | None = None,
    ):
        self.scheme = (
            scheme_by_name(scheme) if isinstance(scheme, str) else scheme
        )
        self.fixed_point = fixed_point
        self.verify = verify
        self.shadow_check = shadow_check
        self.engine = BatchCDSEngine(
            self.scheme,
            fixed_point=fixed_point,
            memory_budget_mb=memory_budget_mb,
        )

    def reset(self) -> None:
        """No cached state to drop; present for pipeline-API parity."""

    def compute(self, graph, energy: Sequence[float] | None = None) -> CDSResult:
        """The vectorized equivalent of :func:`compute_cds` (one element)."""
        topo = None
        if getattr(graph, "keeps_edge_list", False):
            topo = graph.topology
            n = len(topo[0]) - 1
        else:
            adj = graph.adjacency if hasattr(graph, "adjacency") else graph
            adj = list(adj)
            n = len(adj)
        sch = self.scheme
        sch.check_energy(energy, n)
        with obs.span("cds"):
            energy_arr = None
            if energy is not None:
                energy_arr = np.asarray(energy, dtype=np.float64)[None, :]
            if topo is None:
                packed = pack_adjacency(adj)[None, :, :]
                flags, stats = self.engine.run(packed, energy_arr)
            else:
                order = graph.visit_order()
                with obs.span("cds_batch"):
                    flags, stats = self.engine._run_topology(
                        *topo, order, energy_arr
                    )
            mask = flags_to_masks(flags)[0]
            result = CDSResult(
                scheme=sch.name, gateway_mask=mask, n=n, stats=stats[0]
            )
            if self.verify or self.shadow_check:
                adj = list(graph.adjacency) if topo is not None else adj
            if self.verify and (mask or not marking_trivially_empty(adj)):
                with obs.span("verify"):
                    verify_cds(adj, mask, context=f"vectorized scheme={sch.name}")
            if self.shadow_check:
                shadow_check(
                    adj, result, sch, energy,
                    fixed_point=self.fixed_point, pipeline="vectorized",
                )
            if obs.enabled():
                obs.count("cds.computed")
                obs.add("cds.size", result.size)
        return result
