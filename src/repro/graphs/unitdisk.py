"""Vectorized unit-disk-graph construction, topologies and packed rows.

The paper's topology model: hosts live in a 2-D free space and ``{u, v}``
is an edge iff their Euclidean distance is at most the (homogeneous)
transmission radius.  Two strategies build the bitmask rows:

* :func:`unit_disk_adjacency_dense` — one ``O(n^2)`` NumPy broadcast;
  fastest by a wide margin in the paper's regime (n ≤ a few hundred).
* :func:`unit_disk_adjacency_grid` — grid edge lists
  (:func:`unit_disk_edge_lists`: cell = radius, 3×3 candidate cells)
  packed into word rows (:func:`_word_rows`); ``O(n + E)`` at bounded
  density.  ``unit_disk_adjacency`` dispatches to it above a size cutoff.

Both return open-neighborhood bitmasks (see :mod:`repro.graphs.bitset`).

A *topology* is the sorted directed edge list ``(indptr, dst)``: row
``v``'s neighbours are ``dst[indptr[v]:indptr[v + 1]]``, ascending —
``O(E)`` memory where bitmask rows cost ``n²/8`` bytes.
:func:`unit_disk_topology` builds it, :func:`patch_topology` updates it
after moves, :func:`bfs_order`, :func:`topology_is_connected`,
:func:`connected_labels` and :func:`topology_row_diff` query it, and
:func:`topology_rows` turns it into bitmask rows.  ``AdHocNetwork``
keeps its state in this form above the size cutoff, and the sparse CSR
(``repro.core.sparse.CSRBatch``) wraps the same two arrays.  Packed
rows are ``max(1, ceil(n / 64))`` little-endian ``uint64`` words,
padding bits zero; :func:`edge_table` decodes them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError

__all__ = [
    "unit_disk_adjacency",
    "unit_disk_adjacency_dense",
    "unit_disk_adjacency_grid",
    "unit_disk_edges",
    "unit_disk_edge_lists",
    "sorted_pairs",
    "unit_disk_topology",
    "patch_topology",
    "bfs_order",
    "topology_is_connected",
    "connected_labels",
    "topology_row_diff",
    "topology_rows",
    "row_ints",
    "within_radius",
    "edge_table",
    "popcount_rows",
    "pair_index_arrays",
]

#: Above this node count the grid strategy wins; below, dense broadcasting.
_GRID_CUTOFF = 512

#: candidates per :func:`unit_disk_edge_lists` chunk when the caller sets
#: no budget: 64 Ki keeps each temporary at 512 KiB, cache-sized like the
#: kernels' ``CACHE_BLOCK`` (a 4 Mi chunk held ~18 MB at N = 4000).
_EDGE_LIST_WORDS = 1 << 16

#: set bits per :func:`edge_table` chunk when the caller sets no budget
#: (``repro.core.vectorized.chunk_bits`` at its 64 MB default).
_EDGE_TABLE_BITS = 1 << 26

_U64_1 = np.uint64(1)
_U64_63 = np.uint64(63)
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _check_positions(positions: np.ndarray) -> np.ndarray:
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise TopologyError(f"positions must be (n, 2), got {pos.shape}")
    if not np.all(np.isfinite(pos)):
        raise TopologyError("positions contain NaN/inf")
    return pos


def unit_disk_adjacency(positions: np.ndarray, radius: float) -> list[int]:
    """Open-neighborhood bitmasks of the unit-disk graph.

    Edge rule: ``dist(u, v) <= radius`` (inclusive, matching "within
    wireless transmission range").
    """
    pos = _check_positions(positions)
    if radius < 0:
        raise TopologyError(f"radius must be non-negative, got {radius}")
    if len(pos) > _GRID_CUTOFF:
        return unit_disk_adjacency_grid(pos, radius)
    return unit_disk_adjacency_dense(pos, radius)


def unit_disk_adjacency_dense(positions: np.ndarray, radius: float) -> list[int]:
    """Dense ``O(n^2)`` strategy: one broadcasted distance matrix."""
    pos = _check_positions(positions)
    n = len(pos)
    if n == 0:
        return []
    # Squared distances avoid n^2 sqrt calls; per-axis (n, n) blocks,
    # the arithmetic of unit_disk_edge_lists (no (n, n, 2) temporary)
    within = within_radius(pos, pos, radius)
    np.fill_diagonal(within, False)
    return row_ints(np.packbits(within, axis=1, bitorder="little"))


def within_radius(a: np.ndarray, b: np.ndarray, radius: float) -> np.ndarray:
    """``(len(a), len(b))`` bools: ``|a[i] - b[j]|² ≤ radius²``, computed
    ``dx·dx + dy·dy`` in float64 exactly as :func:`unit_disk_edge_lists`
    does, so every builder agrees on pairs at distance exactly ``radius``."""
    dx = a[:, 0, None] - b[None, :, 0]
    dy = a[:, 1, None] - b[None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return dx <= radius * radius


def row_ints(rows: np.ndarray) -> list[int]:
    """Little-endian packed rows (``uint8`` or ``uint64``) -> bitmask ints,
    one ``int.from_bytes`` per row instead of a Python-level bit loop."""
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def unit_disk_adjacency_grid(positions: np.ndarray, radius: float) -> list[int]:
    """Spatial-hash strategy: compare only points in 3x3 neighboring cells,
    then pack the sorted edge lists into word rows."""
    return topology_rows(*unit_disk_topology(positions, radius))


def unit_disk_topology(
    positions: np.ndarray,
    radius: float,
    budget_words: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The unit-disk graph as a sorted directed edge list ``(indptr, dst)``.

    ``dst[indptr[v]:indptr[v + 1]]`` lists ``N(v)`` ascending: the grid
    edge lists of every host, one sort of their keys.  ``budget_words``
    bounds the candidate chunks (:func:`unit_disk_edge_lists`).
    """
    pos = _check_positions(positions)
    n = len(pos)
    src, dst = unit_disk_edge_lists(
        pos, radius, np.arange(n, dtype=np.int64),
        budget_words or _EDGE_LIST_WORDS,
    )
    src, dst = sorted_pairs(src, dst, n)
    return _indptr(src, n), dst


def _indptr(src: np.ndarray, n: int) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr


def _sources(indptr: np.ndarray) -> np.ndarray:
    """The source row of every edge of a topology."""
    n = len(indptr) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def patch_topology(
    indptr: np.ndarray,
    dst: np.ndarray,
    positions: np.ndarray,
    radius: float,
    moved: np.ndarray,
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The topology after hosts ``moved`` (ascending, unique) changed
    position, and the rows whose neighbour set changed.

    Only edges with a moved end can change.  The edge keys ``src·n + dst``
    with neither end moved stay sorted; the movers' fresh edges (and
    their reverses into unmoved hosts) are sorted alone and merged into
    them, so the work is ``O(E)`` plus a sort of the movers' edges.  The
    changed rows are the ends of the keys in exactly one of the old and
    new mover edge sets: a mover that kept its neighbours changes no row.
    The input arrays are not modified.
    """
    n = len(indptr) - 1
    src = _sources(indptr)
    mover = np.zeros(n, dtype=bool)
    mover[moved] = True
    touch = mover[src] | mover[dst]
    keys = src * n + dst
    del src
    old, kept = keys[touch], keys[~touch]
    del keys
    mS, mD = unit_disk_edge_lists(positions, radius, moved)
    back = ~mover[mD]
    new = np.sort(np.concatenate([mS * n + mD, mD[back] * n + mS[back]]))
    keys = np.insert(kept, np.searchsorted(kept, new), new)
    delta = np.setxor1d(old, new, assume_unique=True)
    changed = np.unique(np.concatenate([delta // n, delta % n]))
    src = keys // n
    keys -= src * n
    return (_indptr(src, n), keys), changed


def bfs_order(
    indptr: np.ndarray, dst: np.ndarray, roots
) -> np.ndarray:
    """The rows a breadth-first search from ``roots`` reaches, in visit
    order: the roots as given, then each frontier ascending.

    One numpy pass expands a whole frontier, so the work is ``O(E)`` plus
    one ``np.unique`` per level.  Seeded with one root per component
    (the component minima, or ``[0]`` on a connected topology) it visits
    every row, and the order is a permutation in which each row's
    neighbours lie within a level or two of it: the node order the
    kernels run in (``repro.core.vectorized``, DESIGN §6 "Cache-local
    node order").
    """
    n = len(indptr) - 1
    deg = np.diff(indptr)
    seen = np.zeros(n, dtype=bool)
    front = np.asarray(roots, dtype=np.int64)
    seen[front] = True
    parts = [front]
    while len(front):
        cnt = deg[front]
        first = np.cumsum(cnt) - cnt
        at = np.arange(int(cnt.sum()), dtype=np.int64)
        at += np.repeat(indptr[front] - first, cnt)
        nb = dst[at]
        front = np.unique(nb[~seen[nb]])
        seen[front] = True
        parts.append(front)
    return np.concatenate(parts)


def topology_is_connected(indptr: np.ndarray, dst: np.ndarray) -> bool:
    """Whether a topology is one connected component (vacuously true for
    n = 0): a :func:`bfs_order` from row 0 reaches all ``n`` rows."""
    n = len(indptr) - 1
    return n == 0 or len(bfs_order(indptr, dst, [0])) == n


def connected_labels(indptr: np.ndarray, dst_flat: np.ndarray) -> np.ndarray:
    """Per-flat-row component labels (the min flat id of each component).

    Min-label propagation with full pointer-jumping compression between
    hooking rounds — O(log diameter) numpy passes, no Python per-node
    loop.  ``dst_flat`` holds *flat* destination rows aligned with the
    CSR ``indptr`` segments (a single topology's ``dst`` as is); isolated
    rows keep their own label.  A connected topology is labelled all 0,
    so :meth:`repro.graphs.adhoc.AdHocNetwork.component_labels` answers
    that case from a passing :func:`topology_is_connected` instead.
    """
    R = len(indptr) - 1
    labels = np.arange(R, dtype=np.int64)
    deg = np.diff(indptr)
    nonempty = np.flatnonzero(deg > 0)
    if len(nonempty) == 0:
        return labels
    starts = indptr[nonempty]
    while True:
        nmin = np.minimum.reduceat(labels[dst_flat], starts)
        hooked = np.minimum(labels[nonempty], nmin)
        if np.array_equal(hooked, labels[nonempty]):
            break
        labels[nonempty] = hooked
        while True:
            nxt = labels[labels]
            if np.array_equal(nxt, labels):
                break
            labels = nxt
    return labels


def topology_row_diff(
    a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Ascending ids of the rows whose neighbour lists differ between two
    topologies on the same ``n`` hosts; ``O(E)``."""
    (ia, da), (ib, db) = a, b
    deg = np.diff(ia)
    diff = deg != np.diff(ib)
    row = _sources(ia)
    at = np.flatnonzero(~diff[row])  # edges of a in rows of equal degree
    neq = da[at] != db[at + (ib - ia)[row[at]]]
    diff[row[at[neq]]] = True
    return np.flatnonzero(diff)


def topology_rows(indptr: np.ndarray, dst: np.ndarray) -> list[int]:
    """Bitmask rows of a topology: packed word rows, one
    ``int.from_bytes`` per row — ``n²/8`` bytes, so only on demand."""
    n = len(indptr) - 1
    return row_ints(_word_rows(_sources(indptr), dst, n, n))


def sorted_pairs(
    src: np.ndarray, dst: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` pairs in ascending order: one sort of the int64 keys
    ``src·n + dst`` (``dst < n``), not a two-key ``lexsort``."""
    keys = np.sort(src * n + dst)
    src = keys // n
    keys -= src * n
    return src, keys


def unit_disk_edge_lists(
    pos: np.ndarray,
    radius: float,
    srcs: np.ndarray,
    budget_words: int = _EDGE_LIST_WORDS,
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-disk ``(src, dst)`` directed edge lists for a source subset.

    Candidates come from the 3×3 grid-cell block around each source (cell
    size = radius, or one sized to the field at radius 0), expanded in
    chunks bounded by ``budget_words``.  The distance arithmetic
    (``Σ (Δ)²`` in float64, inclusive ``d² ≤ r²``) matches
    :func:`unit_disk_adjacency_dense` bit for bit, so calling this for
    *all* nodes reproduces the full graph and calling it for just the
    movers yields rows bit-identical to a full rebuild — the property
    :func:`patch_topology` rests on.  Edges are returned unsorted
    (grouped by chunk); callers sort them (:func:`sorted_pairs`).
    """
    empty = np.empty(0, dtype=np.int64)
    k = len(srcs)
    if k == 0:
        return empty, empty
    n = len(pos)
    r2 = radius * radius
    # radius 0 joins only co-located hosts (d² ≤ 0, as the dense
    # strategy does); any positive cell finds them, so take one sized to
    # hold about one host
    cell = radius
    if cell <= 0:
        cell = float(np.ptp(pos, axis=0).max()) / np.sqrt(n) or 1.0
    keys = np.floor(pos / cell).astype(np.int64)
    kx = keys[:, 0] - keys[:, 0].min()
    ky = keys[:, 1] - keys[:, 1].min()
    # +1 shift and a +3 stride make every ±1 cell offset a distinct
    # code with no wraparound, so the 9 probes never double-count
    stride = int(ky.max()) + 3
    code = (kx + 1) * stride + (ky + 1)
    order = np.argsort(code, kind="stable")
    sorted_codes = code[order]
    ucodes, ustarts = np.unique(sorted_codes, return_index=True)
    ucounts = np.diff(np.append(ustarts, n))
    starts9 = np.empty((9, k), dtype=np.int64)
    counts9 = np.zeros((9, k), dtype=np.int64)
    scode = code[srcs]
    j = 0
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            target = scode + dx * stride + dy
            ci = np.searchsorted(ucodes, target)
            ci = np.minimum(ci, len(ucodes) - 1)
            ok = ucodes[ci] == target
            starts9[j] = np.where(ok, ustarts[ci], 0)
            counts9[j] = np.where(ok, ucounts[ci], 0)
            j += 1
    per_node = counts9.sum(axis=0)
    avg = max(1.0, float(per_node.mean()))
    step = max(1, int(budget_words / avg))
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    for lo in range(0, k, step):
        hi = min(k, lo + step)
        cnt = counts9[:, lo:hi].ravel()
        total = int(cnt.sum())
        if total == 0:
            continue
        owner = np.repeat(np.arange(len(cnt), dtype=np.int64), cnt)
        first = np.cumsum(cnt) - cnt
        within = np.arange(total, dtype=np.int64) - first[owner]
        cand = order[starts9[:, lo:hi].ravel()[owner] + within]
        ss = np.tile(srcs[lo:hi], 9)[owner]
        d = pos[cand] - pos[ss]
        dsq = d * d
        d2 = dsq[:, 0] + dsq[:, 1]
        keep = (d2 <= r2) & (cand != ss)
        src_parts.append(ss[keep])
        dst_parts.append(cand[keep])
    if not src_parts:
        return empty, empty
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def _word_rows(eS: np.ndarray, eD: np.ndarray, R: int, n: int) -> np.ndarray:
    """Packed ``(R, W)`` uint64 adjacency rows of a sorted edge list.

    ``eS`` holds flat source rows and ``eD`` local destinations in
    ascending ``(source, destination)`` order, so the bits of one row word
    are a contiguous run of edges: one ``bitwise_or.reduceat`` per run,
    no unpacked bit matrix.  Rows without edges (and every padding bit)
    stay zero, the tail-clean layout the packed kernels expect.
    """
    W = max(1, (n + 63) >> 6)
    rows = np.zeros(R * W, dtype=np.uint64)
    if len(eS):
        slot = eS * W + (eD >> 6)
        bits = _U64_1 << (eD.astype(np.uint64) & _U64_63)
        starts = np.flatnonzero(np.diff(slot, prepend=-1))
        rows[slot[starts]] = np.bitwise_or.reduceat(bits, starts)
    return rows.reshape(R, W)


def popcount_rows(rows: np.ndarray) -> np.ndarray:
    """Per-row popcount of a ``(..., W)`` word matrix -> ``(...,)`` int64."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(rows).sum(axis=-1, dtype=np.int64)
    bits = np.unpackbits(
        np.ascontiguousarray(rows).view(np.uint8), axis=-1, bitorder="little"
    )
    return bits.sum(axis=-1, dtype=np.int64)


def pair_index_arrays(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs ``(i, j)``, ``i < j``, per group, concatenated.

    For each group size ``c`` in ``counts`` this emits its ``c·(c-1)/2``
    pairs grouped by ascending ``j``.  In by-``j`` order a group's pairs
    are the first ``c·(c-1)/2`` entries of one triangle template sized
    to the largest group, so every group is a gather from that template:
    no per-group Python loop, and the template is never larger than the
    output.  Pair order *within* a group differs from ``np.triu_indices``
    (by-j vs row-major) but every consumer treats the pair list as a set.
    """
    counts = np.asarray(counts, dtype=np.int64)
    pcs = counts * (counts - 1) >> 1
    total = int(pcs.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    top = int(counts.max())
    tj = np.repeat(np.arange(top, dtype=np.int64), np.arange(top))
    ti = np.arange(len(tj), dtype=np.int64) - (tj * (tj - 1) >> 1)
    t = np.arange(total, dtype=np.int64)
    t -= np.repeat(np.cumsum(pcs) - pcs, pcs)
    return ti[t], tj[t]


def edge_table(
    rows_flat: np.ndarray, n: int, chunk: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edge table of a flat ``(R, W)`` packed-row batch.

    Returns ``(eS, eD, eDf)``: flat source row, *local* destination node
    id, flat destination row — grouped by ascending source (and, within a
    source, ascending destination).  Only the nonzero row words are
    decoded: bit ``k`` of a word lands at ``cumsum(popcount) + k``, and
    each peel of the lowest set bit ``low`` reads its index as
    ``popcount(low - 1)``, so the work is the set bits plus one pass per
    peel over the words that still have bits — no unpacked bit matrix.
    The peel runs in chunks of at most ``chunk >> 6`` words (``chunk``
    defaults to the 64 MB budget's bits).
    """
    if chunk is None:
        chunk = _EDGE_TABLE_BITS
    W = rows_flat.shape[1]
    flat = rows_flat.reshape(-1)
    nz = np.flatnonzero(flat)  # ascending (row, word)
    nzw = flat[nz]
    cnt = popcount_rows(nzw[:, None])
    eS = np.repeat(nz // W, cnt)
    eD = np.repeat((nz % W) * 64, cnt)
    first = np.cumsum(cnt) - cnt  # each word's first edge slot
    per = max(1, chunk >> 6)
    for lo in range(0, len(nz), per):
        words, slot = nzw[lo : lo + per], first[lo : lo + per]
        while len(words):
            low = words & (~words + _U64_1)
            eD[slot] += popcount_rows((low - _U64_1)[:, None])
            words ^= low
            live = words != 0
            words, slot = words[live], slot[live] + 1
    eDf = eS - eS % n + eD  # same element: flat row of the neighbor
    return eS, eD, eDf


def unit_disk_edges(positions: np.ndarray, radius: float) -> list[tuple[int, int]]:
    """Edge list ``(u, v), u < v`` of the unit-disk graph."""
    indptr, dst = unit_disk_topology(positions, radius)
    src = _sources(indptr)
    up = src < dst
    return list(zip(src[up].tolist(), dst[up].tolist()))
