"""Incremental (delta) CDS pipeline: cached rule engines + dirty-set reuse.

The from-scratch pipeline (:func:`repro.core.cds.compute_cds`) rebuilds
everything each update interval: the marking pass visits all ``n`` nodes and
the :class:`~repro.core.rules.RuleEngine` re-derives keys, degrees, and the
O(Σdeg²) Rule-2 firing-pair table — in pure Python, pair by pair.  But the
paper's whole locality argument (Wu–Li §3) says the *dependency footprint*
of a topology change is 2-hop local:

* ``m(v)`` depends only on ``N(v)`` and the edges within it, so a changed
  row set ``C`` can only re-mark ``C ∪ N(C)`` (:func:`marked_mask_delta`);
* whether a Rule-1/Rule-2 coverage relation holds depends only on the rows
  of the 2–3 nodes cited, so a verdict needs re-testing only when one of
  those rows changed;
* priority keys enter the rules only through a total order, so every key
  comparison can be made against a dense integer *rank* vector.

:class:`CachedRuleEngine` keeps, across intervals:

* the adjacency in synchronized forms — Python bitmask ints for the pass
  loops plus packed ``uint64`` word matrices (row- and column-major) for
  vectorized coverage evaluation; row patches touch only the changed
  columns;
* degrees and the directed-edge table, and the Rule-2 covered triples
  (``N(v) ⊆ N(u) ∪ N(w)`` plus the mutual-coverage case flags) and Rule-1
  closed-coverage verdicts, all grouped by ``v``.  A batch of changed rows
  ``C`` re-derives only what it can affect: degrees and neighbor lists of
  ``C``'s rows, the edges with an end in ``C``, and the triples with ``v``,
  ``u`` or ``w`` in ``C`` — every pair of a node in ``C`` plus, for
  ``v ∈ N(C) \\ C``, the pairs citing ``C``.  Every other verdict is kept.
  A cold start, or an interval whose footprint ``C ∪ N(C)`` leaves too
  little outside it to be worth keeping, is the same code with every row
  in ``C`` and nothing kept (:meth:`CachedRuleEngine._refresh_topology`);
* firing tables (coverage ∧ key order) refreshed only when structure or
  the key vector changed — for the built-in schemes key refresh detection
  and rank construction are vectorized (``np.lexsort`` over the exact same
  quantized values the tuple keys contain, so the order is identical).

Joins and leaves are a splice, not a cold start, when the caller names
each row's external id (``graph.ids``) and the ids keep the service's
index discipline — survivors in their relative order, joins appended.
The cached tables and the previous marking are relabeled (dropped rows
and columns deleted, joined rows appended, the word width ``W`` widened
or narrowed as ``n`` crosses a multiple of 64), and the leavers' former
neighbors and the joiners enter ``C`` (:meth:`CachedRuleEngine.splice`).

Unlike the scratch engine, pair tables cover *all* neighbor pairs rather
than currently-marked ones — markedness is checked at pass time (exactly
as the scratch engine's runtime re-check does), which makes the tables a
pure function of topology + keys and therefore cacheable.

:class:`DeltaCDSPipeline` glues the layers together and is what
:func:`repro.simulation.interval.run_interval` uses when
``SimulationConfig.incremental`` is on.  It is correct-by-equivalence: the
gateway mask (and ``PruneStats``) is bit-identical to the scratch path on
every interval — pinned by the hypothesis property in
``tests/property/test_incremental_properties.py``, by ``shadow_check``
mode, and by the CI smoke job.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.core.cds import CDSResult, compute_cds, shadow_check
from repro.core.marking import (
    marked_mask,
    marked_mask_delta,
    marking_trivially_empty,
)
from repro.core.priority import SCHEMES, PriorityScheme, scheme_by_name
from repro.core.properties import verify_cds
from repro.core.reduction import PruneStats
from repro.errors import ConfigurationError
from repro.graphs import bitset
from repro.graphs.unitdisk import pair_index_arrays

__all__ = [
    "CachedRuleEngine",
    "DeltaCDSPipeline",
    "INCREMENTAL_MIN_HOSTS",
    "changed_row_flags",
]


def changed_row_flags(rows, prev_rows) -> "np.ndarray":
    """Per-node boolean flags of adjacency rows that differ.

    One vectorized object-dtype compare over arbitrary-width Python-int
    bitmask rows — the row-diff primitive behind
    :class:`DeltaCDSPipeline`'s dirty-set marking, shared with the
    incremental sparse pipeline's adjacency fallback path
    (:mod:`repro.core.sparse_delta`).  Both sequences must have the same
    length; callers handle the size-change (cold start) case first.
    """
    return np.not_equal(
        np.asarray(rows, dtype=object),
        np.asarray(prev_rows, dtype=object),
    ).astype(bool)

#: Below this many hosts the scratch path wins: the engine's vectorized
#: passes carry fixed per-call numpy overheads that only amortize once the
#: pure-python pair loops they replace grow past them (crossover measured
#: at n ≈ 45 on the Figure-11 workload; see bench_incremental.py).
#: Callers that choose between the paths per network size (the lifespan
#: simulator) consult this; the pipeline itself works at any size.
INCREMENTAL_MIN_HOSTS = 48

#: A topology refresh splices only when the triples outside the
#: footprint ``C ∪ N(C)`` hold at least this many packed words (estimated
#: as the kept nodes' share of all pairs, times W); below it the kept
#: verdicts save less than their filters and merges cost, and the whole
#: index is rebuilt.  Sized by a sweep (DESIGN §6): it rebuilds every
#: N ≲ 64 network and, at N = 100, footprints of ≳ 0.7 of the nodes.
_MIN_KEPT_WORDS = 8192

#: words per scratch block of the subset sweep (256 KiB): the gathers of
#: a chunk stay in cache, and buffers no longer scale with the triples
_CHUNK_WORDS = 1 << 15

_EMPTY_I32 = np.empty(0, dtype=np.int32)
_EMPTY_BOOL = np.empty(0, dtype=bool)

def _pack_rows(rows: list[int], W: int) -> np.ndarray:
    """Bitmask ints -> (len(rows), W) little-endian uint64 word matrix."""
    raw = b"".join(m.to_bytes(W * 8, "little") for m in rows)
    return np.frombuffer(raw, dtype=np.uint64).reshape(len(rows), W)


def _bools_from_mask(mask: int, n: int) -> np.ndarray:
    """Bitmask int -> (n,) bool array, little-endian bit order."""
    b = mask.to_bytes((n + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(b, dtype=np.uint8), bitorder="little")
    return bits[:n].astype(bool)


def _mask_from_flags(flags: np.ndarray) -> int:
    """(n,) 0/1 array -> bitmask int."""
    return int.from_bytes(
        np.packbits(flags, bitorder="little").tobytes(), "little"
    )


def _unpack_lists(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Packed rows -> (degrees, concatenated ascending neighbor lists).

    Full-width bit matrix: padding columns are zero, so sums and nonzero
    positions are unaffected and stay contiguous (a 2-D nonzero on the
    sliced view costs ~40% more).
    """
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    degs = bits.sum(axis=1, dtype=np.int64)
    nbrs = (np.flatnonzero(bits) % bits.shape[1]).astype(np.int32)
    return degs, nbrs


def _regroup(parts: list) -> tuple:
    """Concatenate tables of parallel columns, each grouped by ascending
    ``v`` (its first column), into one table grouped by ``v`` — a stable
    sort, so each group keeps its parts' order.  A lone non-empty part is
    returned as is."""
    live = [p for p in parts if len(p[0])]
    if len(live) < 2:
        return tuple(live[0] if live else parts[0])
    cols = [np.concatenate(c) for c in zip(*live)]
    order = np.argsort(cols[0], kind="stable")
    return tuple(c[order] for c in cols)


def _survivors(prev: tuple, ids: tuple) -> list[int] | None:
    """Old row of each surviving id, or None when ``ids`` is not ``prev``
    with some ids removed (order kept) and new ids appended."""
    at = {node: i for i, node in enumerate(prev)}
    keep = []
    for node in ids:
        i = at.get(node)
        if i is None:
            break
        keep.append(i)
    if any(b <= a for a, b in zip(keep, keep[1:])):
        return None
    if any(node in at for node in ids[len(keep):]):
        return None
    return keep


def _dropped(keep: Sequence[int], n: int) -> list[int]:
    """The old rows ``keep`` does not name, descending (for _drop_bits)."""
    kept = set(keep)
    return [i for i in range(n - 1, -1, -1) if i not in kept]


def _drop_bits(mask: int, drops: Sequence[int]) -> int:
    """Delete bit positions ``drops`` (descending) from ``mask``, shifting
    the higher bits down — a leave's relabeling of one bitmask."""
    for d in drops:
        if mask >> d:
            mask = (mask & ((1 << d) - 1)) | ((mask >> (d + 1)) << d)
    return mask


class CachedRuleEngine:
    """A :class:`~repro.core.rules.RuleEngine` that survives topology deltas.

    Feed it the current adjacency plus the bitmask of rows that changed
    (:meth:`update`), then :meth:`run` the marked mask through the same
    Rule 1 → Rule 2 procedure as :func:`repro.core.reduction.prune`.  The
    output (mask and stats) is bit-identical to the scratch engine for
    every scheme; only the amount and shape of recomputation differs.
    """

    def __init__(self, scheme: PriorityScheme):
        self.scheme = scheme
        # registry schemes get vectorized key handling; a custom scheme
        # (arbitrary key_fn) falls back to exact tuple keys
        self._fast_keys = SCHEMES.get(scheme.name) is scheme
        # degrees (and the tables) are kept when the rules or the keys
        # read them; the fast-key ``nr`` engine needs neither
        self._indexed = scheme.uses_rules or not self._fast_keys
        self.n = -1  # sentinel: differs from any real size, even 0
        self._adj: list[int] = []
        self._W = 1
        self._ids32 = _EMPTY_I32
        self._deg = np.empty(0, dtype=np.int64)
        self._packed = np.zeros((0, 1), dtype=np.uint64)  # open rows, (n, W)
        self._packedT = np.zeros((1, 0), dtype=np.uint64)  # open rows, (W, n)
        self._closedT = np.zeros((1, 0), dtype=np.uint64)  # closed rows
        # adjacency-only caches, each grouped by ascending v
        self._eV = self._eU = _EMPTY_I32  # directed edges
        self._cV = self._cU = self._cW = _EMPTY_I32  # covered triples
        self._ccu = self._ccw = _EMPTY_BOOL  # mutual-coverage case flags
        self._edge_cov = _EMPTY_BOOL  # N[v] ⊆ N[u] per directed edge
        # key-dependent caches
        self._have_keys = False
        self._qe: np.ndarray | None = None  # quantized energy (fast path)
        self._key_deg = np.empty(0, dtype=np.int64)
        self._keys: list[tuple] | None = None  # generic path only
        self._rank = np.empty(0, dtype=np.int32)
        self._fV = self._fU = self._fW = _EMPTY_I32  # firing triples
        self._f_off: list[int] = [0]  # per-node slices into the triples
        self._fU_list: list[int] = []
        self._fW_list: list[int] = []
        self._f_order: list[int] = []  # firing nodes by ascending rank
        self._dom: list[int] = []  # Rule-1 dominator masks
        self._bufs: dict[str, np.ndarray] = {}

    @property
    def adjacency(self) -> list[int]:
        """The engine's canonical adjacency copy (do not mutate)."""
        return self._adj

    def _buf(self, name: str, shape, dtype=np.uint64) -> np.ndarray:
        """Reusable scratch buffer (the coverage sweep runs every interval
        at low stability; per-call temporaries would dominate it)."""
        if isinstance(shape, int):
            shape = (shape,)
        size = 1
        for s in shape:
            size *= s
        b = self._bufs.get(name)
        if b is None or len(b) < size or b.dtype != dtype:
            b = np.empty(max(size, 16), dtype=dtype)
            self._bufs[name] = b
        return b[:size].reshape(shape)

    # -- state refresh -----------------------------------------------------

    def update(
        self,
        adj: Sequence[int],
        changed: int,
        energy: Sequence[float] | None,
        reach: int | None = None,
    ) -> tuple[bool, bool]:
        """Absorb new adjacency rows and energy levels.

        ``changed`` is the bitmask of indices where ``adj`` differs from the
        engine's copy (ignored on a size change, which resets everything).
        ``reach`` is ``changed`` plus its neighbors, if the caller already
        has it.  Returns ``(structure_changed, keys_changed)`` — both False
        means every cached table, and hence any downstream result, is still
        valid.
        """
        n = len(adj)
        if n != self.n:
            self._init_structure(adj)
            changed = reach = (1 << n) - 1
        elif changed:
            self._patch_rows(adj, changed)
        structure_changed = changed != 0

        if structure_changed and self._indexed:
            if reach is None:
                reach = changed
                for v in bitset.iter_bits(changed):
                    reach |= adj[v]
            # refreshes _deg, which the keys read
            self._refresh_topology(changed, reach)
        keys_changed = self._refresh_keys(energy)
        if self.scheme.uses_rules and (structure_changed or keys_changed) and n:
            self._eval_fire()
            self._eval_dominators()
        if obs.enabled():
            obs.add("delta.rows_patched", bitset.popcount(changed))
            if keys_changed:
                obs.count("delta.key_refreshes")
        return structure_changed, keys_changed

    def _init_structure(self, adj: Sequence[int]) -> None:
        n = len(adj)
        self.n = n
        self._ids32 = np.arange(n, dtype=np.int32)
        self._have_keys = False
        self._qe = None
        self._keys = None
        self._bufs.clear()
        self._deg = np.zeros(n, dtype=np.int64)
        self._eV = self._eU = _EMPTY_I32
        self._cV = self._cU = self._cW = _EMPTY_I32
        self._ccu = self._ccw = self._edge_cov = _EMPTY_BOOL
        self._pack_all(list(adj))

    def _pack_all(self, adj: list[int]) -> None:
        """Install ``adj`` and re-derive every packed word matrix."""
        n = len(adj)
        self._adj = adj
        self._W = max(1, (n + 63) // 64)
        words = _pack_rows(adj, self._W)
        self._packed = words.copy()  # frombuffer output is read-only
        self._packedT = words.T.copy()
        closed = words.copy()
        rows = np.arange(n)
        closed[rows, rows >> 6] |= np.uint64(1) << (
            rows.astype(np.uint64) & np.uint64(63)
        )
        self._closedT = closed.T.copy()

    def _patch_rows(self, adj: Sequence[int], changed: int) -> None:
        ids = bitset.ids_from_mask(changed)
        rows = [adj[v] for v in ids]
        for v, m in zip(ids, rows):
            self._adj[v] = m
        idx = np.asarray(ids, dtype=np.intp)
        words = _pack_rows(rows, self._W)
        self._packed[idx] = words
        self._packedT[:, idx] = words.T
        closed = words.copy()
        k = np.arange(len(ids))
        closed[k, idx >> 6] |= np.uint64(1) << (
            idx.astype(np.uint64) & np.uint64(63)
        )
        self._closedT[:, idx] = closed.T

    def splice(
        self, keep: Sequence[int], n: int, marked: int
    ) -> tuple[int, int]:
        """Carry every cached table across a membership change.

        Row ``i < len(keep)`` of the new labeling is old row ``keep[i]``
        (``keep`` ascending: survivors keep their relative order); rows
        ``len(keep)..n-1`` are joins.  Dropped rows lose their table
        entries and their bits in the surviving rows (and in ``marked``,
        the caller's previous marking), joined rows start empty, and the
        key vector is invalidated (ranks are global).  Returns the bitmask
        of rows the next :meth:`update` must treat as changed although the
        row diff cannot see it — the joins, and the survivors that lost a
        dropped neighbor — and ``marked`` in the new labeling.
        """
        drops = _dropped(keep, self.n)
        marked = _drop_bits(marked, drops)
        keep = np.asarray(keep, dtype=np.int32)
        k = len(keep)
        lost = 0
        for d in drops:
            lost |= self._adj[d]
        lost = _drop_bits(lost, drops)
        joined = ((1 << n) - 1) ^ ((1 << k) - 1)
        rows = [_drop_bits(self._adj[i], drops) for i in keep.tolist()]
        if self._indexed:
            new_of = np.full(self.n, -1, dtype=np.int32)
            new_of[keep] = np.arange(k, dtype=np.int32)
            # the map is monotone on survivors, so v-grouping survives it
            sel = (new_of[self._eV] >= 0) & (new_of[self._eU] >= 0)
            self._eV = new_of[self._eV[sel]]
            self._eU = new_of[self._eU[sel]]
            if len(self._edge_cov):  # kept only when the rules run
                self._edge_cov = self._edge_cov[sel]
            sel = (
                (new_of[self._cV] >= 0)
                & (new_of[self._cU] >= 0)
                & (new_of[self._cW] >= 0)
            )
            self._cV = new_of[self._cV[sel]]
            self._cU = new_of[self._cU[sel]]
            self._cW = new_of[self._cW[sel]]
            if len(self._ccu):
                self._ccu = self._ccu[sel]
                self._ccw = self._ccw[sel]
            deg = np.zeros(n, dtype=np.int64)
            deg[:k] = self._deg[keep]
            self._deg = deg
        self.n = n
        self._ids32 = np.arange(n, dtype=np.int32)
        self._have_keys = False
        self._qe = None
        self._keys = None
        self._pack_all(rows + [0] * (n - k))
        return lost | joined, marked

    def _refresh_keys(self, energy: Sequence[float] | None) -> bool:
        """Detect key-vector changes and rebuild the rank encoding.

        Fast path (registry schemes): the tuple keys are ``(id,)``,
        ``(deg, id)``, ``(qe, id)`` or ``(qe, deg, id)`` with
        ``qe = round(e/quantum)*quantum``.  ``np.rint`` rounds half-to-even
        exactly like Python ``round``, so lexsorting the same component
        arrays yields the identical total order — rank comparisons are
        then exactly the tuple comparisons of the scratch engine.
        """
        n = self.n
        if not self._fast_keys:
            keys = self.scheme.keys([int(d) for d in self._deg], energy)
            if self._have_keys and keys == self._keys:
                return False
            self._keys = keys
            order = sorted(range(n), key=keys.__getitem__)
            rank = np.empty(n, dtype=np.int32)
            rank[np.asarray(order, dtype=np.intp)] = self._ids32
            self._rank = rank
            self._have_keys = True
            return True

        name = self.scheme.name
        uses_deg = name in ("nd", "el2")
        uses_energy = name in ("el1", "el2")
        qe = None
        if uses_energy:
            qe = self.scheme.quantized_levels(energy)
            if self.scheme.quantum is None:
                qe = qe.copy()  # cached below; the caller may drain in place
        if self._have_keys:
            same = True
            if uses_deg and not np.array_equal(self._deg, self._key_deg):
                same = False
            if same and uses_energy and not np.array_equal(qe, self._qe):
                same = False
            if same:
                return False
        if name in ("nr", "id"):
            rank = self._ids32
        else:
            order = np.lexsort(
                self.scheme.key_columns(self._ids32, self._deg, qe)
            )
            rank = np.empty(n, dtype=np.int32)
            rank[order] = self._ids32
        self._rank = rank
        if uses_deg:
            self._key_deg = self._deg.copy()
        self._qe = qe
        self._have_keys = True
        return True

    def _refresh_topology(self, changed: int, reach: int) -> None:
        """Re-derive what the changed rows can affect; keep the rest.

        A Rule-2 verdict ``N(v) ⊆ N(u) ∪ N(w)`` (and its case flags) reads
        only rows ``v``, ``u``, ``w``, and a Rule-1 verdict ``N[v] ⊆ N[u]``
        only rows ``v`` and ``u``.  So with ``C`` the ``changed`` rows and
        ``reach = C ∪ N(C)``:

        * degrees and neighbor lists are unpacked for ``C``'s rows only;
        * the edge table keeps every group ``v ∉ C`` and regenerates the
          groups of ``C``; an edge is re-tested iff an end is in ``C``;
        * a triple is re-tested iff ``v``, ``u`` or ``w`` is in ``C``:
          every pair of a ``v ∈ C``, plus, for ``v ∈ N(C) \\ C`` (whose
          own row is unchanged), the pairs citing a member of ``C``.
          Every other covered triple keeps its verdict.

        ``N(C)`` may be read off the old or the new rows alike: a neighbor
        ``C`` lost changed its own row, so it is in ``C``.  A cold start
        has every row in ``C``, so nothing is kept and this is the full
        vectorized build: one unpack, one pair decode, one sweep.  So is
        a footprint that leaves fewer than :data:`_MIN_KEPT_WORDS` words
        of triples outside it.

        All tables stay grouped by ascending ``v`` (``_eval_fire`` slices
        them per node).
        """
        n = self.n
        if n == 0:
            return
        outside = n - bitset.popcount(reach)
        pairs = int((self._deg * (self._deg - 1) >> 1).sum())
        if outside * pairs * self._W < _MIN_KEPT_WORDS * n:
            changed = reach = (1 << n) - 1
        # with every row in C nothing is kept: the blocks that gather the
        # kept entries and N(C) \ C are skipped, not run empty (their
        # fixed numpy cost is ~15% of a full refresh at N = 100)
        local = changed != (1 << n) - 1
        inC = _bools_from_mask(changed, n)
        cidx = np.flatnonzero(inC).astype(np.int32)
        degC, nbrC = _unpack_lists(self._packed[cidx])
        deg = self._deg.copy()
        deg[cidx] = degC
        self._deg = deg
        rules = self.scheme.uses_rules

        # -- directed edges, grouped by v, with the Rule-1 verdicts
        # N[v] ⊆ N[u]: C's groups are regenerated ...
        parts = [[np.repeat(cidx, degC), nbrC]]
        if rules:
            parts[0].append(
                self._covered(self._closedT, cidx, nbrC, counts=degC)
            )
        if local:
            # ... the others kept, their edges to C re-tested
            hold = np.flatnonzero(~inC[self._eV])
            kept = [self._eV[hold], self._eU[hold]]
            if rules:
                cov = self._edge_cov[hold]
                redo = np.flatnonzero(inC[kept[1]])
                cov[redo] = self._covered(
                    self._closedT, kept[0][redo], kept[1][redo]
                )
                kept.append(cov)
            parts.insert(0, kept)
        self._eV, self._eU, *cov = _regroup(parts)
        self._edge_cov = cov[0] if rules else _EMPTY_BOOL
        if not rules:
            return

        # -- Rule-2 triples: every pair of a changed row ...
        pcsC = degC * (degC - 1) >> 1
        iu, iw = pair_index_arrays(degC)
        base = np.repeat(np.cumsum(degC) - degC, pcsC)
        tV = np.repeat(cidx, pcsC)
        tU, tW = nbrC[iu + base], nbrC[iw + base]
        hit = np.flatnonzero(
            self._covered(self._packedT, cidx, tU, tW, counts=pcsC)
        )
        parts = [self._flagged(tV[hit], tU[hit], tW[hit])]
        retested = len(tU)
        cases = self.scheme.uses_coverage_cases
        if local:
            # ... and, for v ∈ N(C) \ C, the pairs that cite a changed row
            R = np.flatnonzero(_bools_from_mask(reach & ~changed, n))
            degR = deg[R]
            pcsR = degR * (degR - 1) >> 1
            iu, iw = pair_index_arrays(degR)
            base = np.repeat((np.cumsum(deg) - deg)[R], pcsR)
            rU, rW = self._eU[iu + base], self._eU[iw + base]
            sel = np.flatnonzero(inC[rU] | inC[rW])
            rV = np.repeat(R.astype(np.int32), pcsR)[sel]
            rU, rW = rU[sel], rW[sel]
            hit = np.flatnonzero(self._covered(self._packedT, rV, rU, rW))
            parts.append(self._flagged(rV[hit], rU[hit], rW[hit]))
            retested += len(sel)
            # every covered triple citing no member of C keeps its verdict
            old = (self._cV, self._cU, self._cW)
            if cases:
                old += (self._ccu, self._ccw)
            cites = inC[old[0]] | inC[old[1]] | inC[old[2]]
            hold = np.flatnonzero(~cites)
            parts.insert(0, tuple(x[hold] for x in old))
        self._cV, self._cU, self._cW, *flags = _regroup(parts)
        self._ccu, self._ccw = flags if cases else (_EMPTY_BOOL, _EMPTY_BOOL)
        if obs.enabled():
            total = int((deg * (deg - 1) >> 1).sum())
            obs.count("delta.topology_refreshes")
            obs.add("delta.triples_retested", retested)
            obs.add("delta.retest_frac", retested / total if total else 0.0)
            obs.add("delta.covered_triples", len(self._cV))

    def _flagged(
        self, cV: np.ndarray, cU: np.ndarray, cW: np.ndarray
    ) -> tuple:
        """Covered triples, plus their case flags when the scheme reads
        them."""
        if self.scheme.uses_coverage_cases:
            return (cV, cU, cW) + self._case_flags(cV, cU, cW)
        return cV, cU, cW

    def _covered(
        self,
        rowsT: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        counts: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per triple: is row ``a`` a subset of row ``b`` ∪ row ``c``?

        ``rowsT`` is a ``(W, n)`` word matrix (open or closed rows).  With
        ``counts`` the table is grouped: group ``i`` is ``counts[i]``
        consecutive triples whose ``a`` is ``a[i]``, and its a-rows come
        from ``np.repeat``, which walks the source once (much cheaper than
        a gather).  One word-parallel sweep, run in chunks sized to stay
        in cache through engine-owned scratch buffers (it runs every
        interval at low stability; per-call temporaries would dominate).
        A grouped chunk ends on a group boundary and holds at least one
        group, however large.
        """
        W = rowsT.shape[0]
        T = len(b)
        step = max(256, _CHUNK_WORDS // W)
        if counts is None:
            bounds = list(range(0, T, step)) + [T]
        elif T <= step:
            bounds, groups = [0, T], [0, len(counts)]
        else:
            ends = np.cumsum(counts)
            # cut after the last group that ends by each multiple of step
            cut = np.unique(
                np.searchsorted(ends, np.arange(step, T, step), side="right")
            )
            groups = [0] + cut[(cut > 0) & (cut < len(ends))].tolist()
            groups.append(len(ends))
            bounds = np.concatenate(([0], ends))[groups].tolist()
        out = np.empty(T, dtype=bool)
        for i in range(len(bounds) - 1):
            s, e = bounds[i], bounds[i + 1]
            k = e - s
            if k == 0:
                continue
            if counts is None:
                xa = self._buf("xa", (W, k))
                np.take(rowsT, a[s:e], axis=1, out=xa)
            else:
                g0, g1 = groups[i], groups[i + 1]
                xa = np.repeat(rowsT[:, a[g0:g1]], counts[g0:g1], axis=1)
            xb = self._buf("xb", (W, k))
            np.take(rowsT, b[s:e], axis=1, out=xb)
            if c is not None:
                xc = self._buf("xc", (W, k))
                np.take(rowsT, c[s:e], axis=1, out=xc)
                np.bitwise_or(xb, xc, out=xb)
            np.bitwise_not(xb, out=xb)
            np.bitwise_and(xa, xb, out=xb)  # members of a that b∪c misses
            acc = xb[0]
            for j in range(1, W):
                np.bitwise_or(acc, xb[j], out=acc)
            np.equal(acc, 0, out=out[s:e])
        return out

    def _case_flags(
        self, cV: np.ndarray, cU: np.ndarray, cW: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mutual-coverage case flags of covered triples (typically a small
        fraction): ``N(u) ⊆ N(v) ∪ N(w)`` and ``N(w) ⊆ N(u) ∪ N(v)``,
        chunked like :meth:`_covered` and sharing its three gathers."""
        S = len(cV)
        ccu = np.empty(S, dtype=bool)
        ccw = np.empty(S, dtype=bool)
        packedT = self._packedT
        W = self._W
        step = max(256, _CHUNK_WORDS // W)
        for s in range(0, S, step):
            e = min(S, s + step)
            k = e - s
            sv = self._buf("xa", (W, k))
            su = self._buf("xb", (W, k))
            sw = self._buf("xc", (W, k))
            sx = self._buf("xd", (W, k))
            np.take(packedT, cV[s:e], axis=1, out=sv)
            np.take(packedT, cU[s:e], axis=1, out=su)
            np.take(packedT, cW[s:e], axis=1, out=sw)
            for x, y, z, out in ((su, sv, sw, ccu), (sw, sv, su, ccw)):
                np.bitwise_or(y, z, out=sx)
                np.bitwise_not(sx, out=sx)
                np.bitwise_and(x, sx, out=sx)  # members of x that y∪z misses
                acc = sx[0]
                for j in range(1, W):
                    np.bitwise_or(acc, sx[j], out=acc)
                np.equal(acc, 0, out=out[s:e])
        return ccu, ccw

    def _eval_fire(self) -> None:
        """Combine cached coverage verdicts with the current key ranks.

        Besides the firing-triple arrays this materializes the structures
        the sequential Rule-2 pass consumes: per-node slice offsets into
        the (v-grouped) triple table, plain-list copies for the Python
        scan, and the firing nodes ordered by ascending rank.
        """
        if len(self._cV) == 0:
            self._fV = self._fU = self._fW = _EMPTY_I32
            self._f_off = [0] * (self.n + 1)
            self._fU_list = []
            self._fW_list = []
            self._f_order = []
            return
        rank = self._rank
        rv, ru, rw = rank[self._cV], rank[self._cU], rank[self._cW]
        lu, lw = rv < ru, rv < rw
        if self.scheme.uses_coverage_cases:
            # case 1: only v covered → fire; case 2: v + one other → key
            # test against that other; case 3: all covered → strict
            # minimum.  Collapsing the case table: the u-side key test is
            # waived exactly when u is not mutually covered, same for w.
            np.bitwise_or(lu, ~self._ccu, out=lu)
            np.bitwise_or(lw, ~self._ccw, out=lw)
        fire = np.bitwise_and(lu, lw, out=lu)
        keep = np.flatnonzero(fire)
        fV = self._cV[keep]
        self._fV = fV
        self._fU = self._cU[keep]
        self._fW = self._cW[keep]
        # _cV is grouped by ascending v (it inherits _tV's repeat order),
        # so fV is too — per-node slices come from one searchsorted
        self._f_off = np.searchsorted(
            fV, np.arange(self.n + 1, dtype=np.int32)
        ).tolist()
        self._fU_list = self._fU.tolist()
        self._fW_list = self._fW.tolist()
        # fV is sorted, so its distinct values are where it steps
        vs = fV[np.flatnonzero(np.diff(fV, prepend=np.int32(-1)))]
        self._f_order = vs[np.argsort(rank[vs])].tolist()

    def _eval_dominators(self) -> None:
        """Rule-1 dominator masks: ``dom[v] ∋ u`` iff ``N[v] ⊆ N[u]`` and
        ``key(v) < key(u)`` — at pass time ``v`` unmarks iff a dominator is
        marked."""
        dom = [0] * self.n
        if len(self._eV):
            rank = self._rank
            sel = self._edge_cov & (rank[self._eV] < rank[self._eU])
            for v, u in zip(self._eV[sel].tolist(), self._eU[sel].tolist()):
                dom[v] |= 1 << u
        self._dom = dom

    # -- rule passes -------------------------------------------------------

    def rule1_pass(self, marked: int) -> int:
        """Simultaneous Rule-1 pass via cached dominator masks."""
        dom = self._dom
        removed = 0
        m = marked
        while m:
            low = m & -m
            m ^= low
            if dom[low.bit_length() - 1] & marked:
                removed |= low
        if obs.enabled():
            obs.add("rule1.nodes_evaluated", bitset.popcount(marked))
            obs.add("rule1.removed", bitset.popcount(removed))
        return marked & ~removed

    def rule2_pass(self, marked: int) -> int:
        """One Rule-2 pass over the cached firing table.

        The scratch engine runs iterated local-minimum rounds (the
        distributed realization).  This pass removes the *same set* by
        processing firing nodes once in ascending rank order, because the
        round semantics is sequentializable:

        * firing is monotone — removals only kill firing pairs (``pm ⊆
          current``), never create them, so a non-candidate never becomes
          one;
        * a node ``w`` cannot commit while a smaller-rank candidate
          neighbor ``v`` exists (``v`` blocks ``w`` by definition of the
          local minimum), so when ``v`` is decided every smaller-rank
          neighbor is final and no larger-rank neighbor has committed;
        * non-neighbor removals cannot affect ``v`` (its firing pairs cite
          members of ``N(v)`` only).

        Hence each node's decision under round semantics equals
        ``fires(v, current)`` evaluated in rank order — which is what this
        loop computes.  Equivalence is pinned by the delta-vs-scratch
        property tests.
        """
        counting = obs.enabled()
        if counting:
            obs.add("rule2.nodes_evaluated", bitset.popcount(marked))
        if len(self._fV) == 0 or marked == 0:
            return marked
        mk = _bools_from_mask(marked, self.n).tolist()
        off = self._f_off
        fU, fW = self._fU_list, self._fW_list
        removed = 0
        for v in self._f_order:
            if not mk[v]:
                continue
            for i in range(off[v], off[v + 1]):
                if mk[fU[i]] and mk[fW[i]]:
                    mk[v] = False
                    removed |= 1 << v
                    break
        if counting:
            obs.add("rule2.removed", bitset.popcount(removed))
        return marked & ~removed

    def run(
        self, marked: int, *, fixed_point: bool = False, max_rounds: int = 1_000
    ) -> tuple[int, PruneStats]:
        """Rule 1 then Rule 2, mirroring :func:`repro.core.reduction.prune`."""
        initial = bitset.popcount(marked)
        if not self.scheme.uses_rules:
            return marked, PruneStats(initial, 0, 0, 0)
        removed1 = removed2 = 0
        rounds = 0
        current = marked
        while True:
            rounds += 1
            with obs.span("rule1"):
                after1 = self.rule1_pass(current)
            removed1 += bitset.popcount(current) - bitset.popcount(after1)
            with obs.span("rule2"):
                after2 = self.rule2_pass(after1)
            removed2 += bitset.popcount(after1) - bitset.popcount(after2)
            stable = after2 == current
            current = after2
            if stable or not fixed_point or rounds >= max_rounds:
                break
        return current, PruneStats(initial, removed1, removed2, rounds)


class DeltaCDSPipeline:
    """End-to-end incremental CDS recomputation across update intervals.

    Call :meth:`compute` once per interval with the current topology and
    energy levels.  The pipeline diffs the adjacency against the previous
    interval, re-marks only the 2-hop dirty footprint, refreshes the cached
    rule engine where adjacency/keys changed, and short-circuits to the
    previous :class:`CDSResult` when both fingerprints are unchanged.

    When the graph also exposes ``ids`` (the external id of each row) a
    membership change is spliced instead of starting cold, provided the
    survivors keep their relative order and joins are appended — the
    service's :class:`~repro.service.state.TenantState` index discipline.

    Parameters
    ----------
    scheme:
        Priority scheme name or instance (as :func:`compute_cds`).
    fixed_point:
        Iterate the rule passes to a fixed point (the ablation mode).
    verify:
        Assert Properties 1–2 on every result.
    shadow_check:
        Also run the from-scratch pipeline each interval and raise
        :class:`InvariantViolation` unless the gateway masks and
        ``PruneStats`` are bit-identical (debug / CI equivalence mode;
        pays for both paths).
    """

    def __init__(
        self,
        scheme: str | PriorityScheme,
        *,
        fixed_point: bool = False,
        verify: bool = False,
        shadow_check: bool = False,
    ):
        self.scheme = scheme_by_name(scheme) if isinstance(scheme, str) else scheme
        self.fixed_point = fixed_point
        self.verify = verify
        self.shadow_check = shadow_check
        self.reset()

    def reset(self) -> None:
        """Drop all cached state (next compute is a cold start)."""
        self.engine = CachedRuleEngine(self.scheme)
        self._prev_marked = 0
        self._prev_result: CDSResult | None = None
        self._ids: tuple | None = None

    def compute(self, graph, energy: Sequence[float] | None = None) -> CDSResult:
        """The incremental equivalent of :func:`compute_cds`.

        ``graph`` is anything exposing bitmask ``adjacency`` (AdHocNetwork,
        NeighborhoodView) or a raw bitmask list.  Unlike the scratch path
        no snapshot/validation pass is taken: rows are trusted as maintained
        by :meth:`AdHocNetwork.apply_moves` (or whatever the caller built).
        An optional ``graph.ids`` (one external id per row) lets joins and
        leaves be spliced into the cached state; without it a size change
        starts cold.
        """
        if hasattr(graph, "adjacency"):
            adj = graph.adjacency
            ids = getattr(graph, "ids", None)
            ids = None if ids is None else tuple(ids)
        else:
            adj, ids = graph, None
        n = len(adj)
        sch = self.scheme
        sch.check_energy(energy, n)
        if ids is not None and len(ids) != n:
            raise ConfigurationError(f"ids has {len(ids)} entries for {n} nodes")

        with obs.span("cds"):
            counting = obs.enabled()
            cold = self._prev_result is None
            forced = 0
            if not cold and ids != self._ids and None not in (ids, self._ids):
                keep = _survivors(self._ids, ids)
                if keep is None:
                    cold = True
                else:
                    forced, self._prev_marked = self.engine.splice(
                        keep, n, self._prev_marked
                    )
                    if counting:
                        obs.count("delta.splices")
            elif self.engine.n != n:
                cold = True
            if cold:
                self.reset()
                changed = dirty = (1 << n) - 1
                if counting:
                    obs.count("delta.cold_starts")
            else:
                prev_adj = self.engine.adjacency
                # one vectorized row compare, packed back to a bitmask
                changed = forced | _mask_from_flags(
                    changed_row_flags(adj, prev_adj)
                )
                dirty = 0
                m = changed
                while m:
                    low = m & -m
                    m ^= low
                    v = low.bit_length() - 1
                    dirty |= low | prev_adj[v] | adj[v]
            self._ids = ids
            engine = self.engine

            # dirty = C ∪ N(C): a neighbor C lost is itself in C
            structure_changed, keys_changed = engine.update(
                adj, changed, energy, dirty
            )

            if counting:
                obs.count("delta.intervals")
                obs.add("delta.nodes", n)
                obs.add("delta.changed_rows", bitset.popcount(changed))
                obs.add("delta.dirty_marking", bitset.popcount(dirty))

            if not cold and not structure_changed and not keys_changed:
                # both fingerprints (adjacency rows, key vector) unchanged:
                # every stage would reproduce the previous interval exactly
                if counting:
                    obs.count("delta.short_circuit")
                    obs.count("cds.computed")
                    obs.add("cds.size", self._prev_result.size)
                return self._prev_result

            if cold:
                marked = marked_mask(engine.adjacency)
            elif changed:
                marked = marked_mask_delta(
                    engine.adjacency, self._prev_marked, dirty
                )
            else:
                marked = self._prev_marked

            final, stats = engine.run(marked, fixed_point=self.fixed_point)
            result = CDSResult(
                scheme=sch.name, gateway_mask=final, n=n, stats=stats
            )
            if self.verify and (
                final or not marking_trivially_empty(engine.adjacency)
            ):
                with obs.span("verify"):
                    verify_cds(
                        engine.adjacency,
                        final,
                        context=f"delta scheme={sch.name}",
                    )
            if self.shadow_check:
                if counting:
                    obs.count("delta.shadow_checks")
                shadow_check(
                    list(engine.adjacency), result, sch, energy,
                    fixed_point=self.fixed_point, pipeline="delta",
                    oracle=compute_cds,
                )
            if counting:
                obs.count("cds.computed")
                obs.add("cds.size", result.size)

        self._prev_marked = marked
        self._prev_result = result
        return result
