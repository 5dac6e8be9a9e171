"""The mutable ad hoc wireless network container.

``AdHocNetwork`` owns host positions, the (homogeneous) transmission radius,
and a lazily rebuilt unit-disk adjacency.  It is the object the simulator
mutates every update interval:

* the mobility model moves ``positions`` in place and calls
  :meth:`AdHocNetwork.apply_moves` (incremental) or
  :meth:`AdHocNetwork.invalidate` (full rebuild),
* the CDS pipeline takes an immutable :meth:`snapshot`
  (:class:`~repro.graphs.neighborhoods.NeighborhoodView`) so algorithms see
  a fixed topology within the interval,
* topology-delta queries (:meth:`changed_nodes_since`) feed the *localized
  update* machinery of :mod:`repro.protocol.locality` (Wu-Li showed only
  neighbors of changed hosts must refresh their status).

Incremental maintenance
-----------------------
:meth:`apply_moves` patches the cached adjacency in place after a subset of
hosts moved.  Rows of unmoved hosts can only change in bits belonging to
moved hosts, so recomputing the movers' rows and flipping the symmetric
bits is bit-identical to a full rebuild.  Up to ``_GRID_DELTA_CUTOFF``
hosts the mover rows come from one dense ``(k, n)`` distance block and
the flips go bit by bit (pinned by a hypothesis property); above it one
grid edge-list pass yields every mover's row, the changed edges are the
set bits of the old ``^`` new word rows, and each affected unmoved row
takes its flips in one XOR (pinned at n = 513 and 4000 by
``tests/graphs/test_adhoc_grid_patch.py``).  Above
``_DELTA_REBUILD_FRACTION`` moved, one full rebuild is cheaper, and the
method diffs its rows instead.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError
from repro.graphs import bitset
from repro.graphs.neighborhoods import NeighborhoodView, is_connected
from repro.graphs.unitdisk import (
    _word_rows,
    edge_table,
    row_ints,
    sorted_pairs,
    unit_disk_adjacency,
    unit_disk_edge_lists,
)

__all__ = ["AdHocNetwork"]

#: Above this moved fraction a vectorized full rebuild beats row patching.
_DELTA_REBUILD_FRACTION = 0.35

#: Up to this host count a mover's row comes from one dense (k, n) distance
#: block; above it one grid edge-list pass bounds the work to the movers'
#: 3x3 cell blocks (mirrors the builder cutoff in repro.graphs.unitdisk).
_GRID_DELTA_CUTOFF = 512


class AdHocNetwork:
    """Hosts in a 2-D free space joined by a unit-disk graph.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of host coordinates (copied to float64, owned).
    radius:
        Homogeneous transmission radius (edge iff distance <= radius).
    side:
        Side length of the square region, retained for mobility/serialization.
    """

    def __init__(self, positions: np.ndarray, radius: float, *, side: float = 100.0):
        pos = np.array(positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise TopologyError(f"positions must be (n, 2), got {pos.shape}")
        if radius < 0 or not np.isfinite(radius):
            raise TopologyError(f"radius must be non-negative finite, got {radius}")
        self._pos = pos
        self._radius = float(radius)
        self._side = float(side)
        self._adj: list[int] | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of hosts."""
        return len(self._pos)

    @property
    def positions(self) -> np.ndarray:
        """The live ``(n, 2)`` position array (mutate then ``invalidate()``)."""
        return self._pos

    @property
    def radius(self) -> float:
        return self._radius

    @property
    def side(self) -> float:
        return self._side

    @property
    def adjacency(self) -> list[int]:
        """Open-neighborhood bitmasks, rebuilt lazily after invalidation."""
        if self._adj is None:
            self._adj = unit_disk_adjacency(self._pos, self._radius)
        return self._adj

    @property
    def has_adjacency_cache(self) -> bool:
        """Whether the Python bitmask adjacency is currently materialized.

        Position-native consumers (the sparse pipelines) never touch
        :attr:`adjacency`; callers that would only *warm* the cache on
        their behalf (e.g. mobility patching) can check this and skip the
        O(n^2/word) Python build entirely at 100k nodes.
        """
        return self._adj is not None

    # -- mutation ----------------------------------------------------------

    def invalidate(self) -> None:
        """Mark the cached adjacency stale (call after moving positions)."""
        self._adj = None

    def move_host(self, v: int, xy) -> None:
        """Teleport a single host and invalidate the adjacency."""
        self._pos[v] = np.asarray(xy, dtype=np.float64)
        self.invalidate()

    def apply_moves(self, moved) -> int:
        """Patch the cached adjacency after ``moved`` hosts changed position.

        ``moved`` is an index array (or boolean mask) of hosts whose rows in
        :attr:`positions` were already updated in place.  Returns the bitmask
        of nodes whose neighbor row changed.  If no adjacency was cached yet
        the full matrix is built and every node is reported changed.
        """
        moved = np.asarray(moved)
        if moved.dtype == bool:
            moved = np.flatnonzero(moved)
        moved = np.atleast_1d(moved.astype(np.intp))
        n = self.n
        if self._adj is None:
            self._adj = unit_disk_adjacency(self._pos, self._radius)
            return (1 << n) - 1 if n else 0
        if moved.size == 0 or self._radius <= 0:
            return 0
        if moved.size > max(8, int(n * _DELTA_REBUILD_FRACTION)):
            return self._rebuild_and_diff()
        # either way the distance arithmetic (x² + y² per pair, inclusive
        # radius) matches the full builders exactly, so the patched rows
        # are bit-identical to a rebuild
        if n > _GRID_DELTA_CUTOFF:
            return self._patch_grid(np.unique(moved))

        adj = self._adj
        moved_ids = [int(v) for v in moved]
        moved_mask = bitset.mask_from_ids(moved_ids)
        changed = 0
        for v, row in self._mover_rows_dense(moved, moved_ids):
            old = adj[v]
            if old == row:
                continue
            adj[v] = row
            changed |= 1 << v
            # unmoved neighbors gained/lost exactly the edge to v
            flips = (old ^ row) & ~moved_mask
            for u in bitset.iter_bits(flips):
                adj[u] ^= 1 << v
            changed |= old ^ row
        return changed

    def _mover_rows_dense(self, moved: np.ndarray, moved_ids: list[int]):
        """Mover rows via one (k, n) distance block — wins for small n,
        where per-mover grid bookkeeping costs more than brute force."""
        pos = self._pos
        diff = pos[None, :, :] - pos[moved, None, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        within = d2 <= self._radius * self._radius
        rows = row_ints(np.packbits(within, axis=1, bitorder="little"))
        return [(v, row & ~(1 << v)) for v, row in zip(moved_ids, rows)]

    def _patch_grid(self, moved: np.ndarray) -> int:
        """Patch the rows of ``moved`` (ascending, unique) and of their old
        and new neighbours from one grid edge-list pass; O(k · local
        density + k · n/64), no per-bit Python loop."""
        adj, n, k = self._adj, self.n, len(moved)
        W = max(1, (n + 63) >> 6)
        mS, mD = unit_disk_edge_lists(self._pos, self._radius, moved)
        new = _word_rows(*sorted_pairs(np.searchsorted(moved, mS), mD, n), k, n)
        old = np.frombuffer(
            b"".join(adj[v].to_bytes(W * 8, "little") for v in moved.tolist()),
            dtype=np.uint64,
        ).reshape(k, W)
        # changed edges (mover moved[vi], node u), grouped by mover
        vi, u, _ = edge_table(old ^ new, n)
        flag = np.zeros(n, dtype=bool)
        flag[u] = True
        rows = vi[np.diff(vi, prepend=-1) != 0]  # vi ascends
        flag[moved[rows]] = True
        for v, row in zip(moved[rows].tolist(), row_ints(new[rows])):
            adj[v] = row
        # an unmoved row flips exactly the bits of the movers whose edge
        # to it changed: one XOR word row per affected row
        mover = np.zeros(n, dtype=bool)
        mover[moved] = True
        out = ~mover[u]
        fu, fv = sorted_pairs(u[out], moved[vi[out]], n)
        head = np.diff(fu, prepend=-1) != 0
        flips = _word_rows(np.cumsum(head) - 1, fv, int(head.sum()), n)
        for v, flip in zip(fu[head].tolist(), row_ints(flips)):
            adj[v] ^= flip
        return int.from_bytes(
            np.packbits(flag, bitorder="little").tobytes(), "little"
        )

    def _rebuild_and_diff(self) -> int:
        old = self._adj
        assert old is not None
        new = unit_disk_adjacency(self._pos, self._radius)
        self._adj = new
        return sum(1 << v for v in range(self.n) if old[v] != new[v])

    # -- queries -----------------------------------------------------------

    def neighbors(self, v: int) -> list[int]:
        """``N(v)`` as a sorted id list."""
        return bitset.ids_from_mask(self.adjacency[v])

    def degree(self, v: int) -> int:
        return bitset.popcount(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)

    def is_connected(self) -> bool:
        return is_connected(self.adjacency)

    def snapshot(self) -> NeighborhoodView:
        """Immutable adjacency snapshot for the CDS pipeline."""
        return NeighborhoodView(self.adjacency)

    def changed_nodes_since(self, previous: NeighborhoodView) -> list[int]:
        """Hosts whose open neighbor set differs from ``previous``.

        This is the "changing hosts" set of Wu-Li's locality result: after a
        topology change, only these hosts and their neighbors need to update
        their gateway/non-gateway status.
        """
        if previous.n != self.n:
            raise TopologyError("snapshot size mismatch")
        adj = self.adjacency
        return [v for v in range(self.n) if adj[v] != previous.adjacency[v]]

    def copy(self) -> "AdHocNetwork":
        """Deep copy (positions duplicated; adjacency cache dropped)."""
        return AdHocNetwork(self._pos, self._radius, side=self._side)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AdHocNetwork(n={self.n}, radius={self._radius}, side={self._side})"
        )
