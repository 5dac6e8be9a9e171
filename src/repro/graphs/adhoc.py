"""The mutable ad hoc wireless network container.

``AdHocNetwork`` owns host positions, the (homogeneous) transmission radius,
and a lazily built unit-disk topology.  It is the object the simulator
mutates every update interval:

* the mobility model moves ``positions`` in place and calls
  :meth:`AdHocNetwork.apply_moves` (incremental) or
  :meth:`AdHocNetwork.invalidate` (full rebuild),
* the CDS pipelines read either the sorted edge list
  (:attr:`AdHocNetwork.topology`; the vectorized and sparse kernels) or
  an immutable bitmask :meth:`snapshot`
  (:class:`~repro.graphs.neighborhoods.NeighborhoodView`; the scalar
  and delta engines), so algorithms see a fixed topology within the
  interval,
* topology-delta queries (:meth:`changed_nodes_since`) feed the *localized
  update* machinery of :mod:`repro.protocol.locality` (Wu-Li showed only
  neighbors of changed hosts must refresh their status).

Two representations
-------------------
Up to ``_GRID_DELTA_CUTOFF`` hosts (the paper's N = 100 cells) the kept
state is the Python-int bitmask rows: :meth:`apply_moves` rebuilds the
movers' rows from one dense ``(k, n)`` distance block and flips the
symmetric bits of their unmoved neighbours (or, above
``_DELTA_REBUILD_FRACTION`` moved, rebuilds and diffs), bit-identical to
a full rebuild.  Above the cutoff it is the sorted edge list
``(indptr, dst)``, ``O(E)`` where the rows cost ``n²/8`` bytes:
:meth:`apply_moves` merges the movers' fresh edges into it
(:func:`repro.graphs.unitdisk.patch_topology`), :meth:`is_connected`
walks it, and :attr:`adjacency` derives the int rows only when read,
counting each build in the obs counter ``graphs.int_rows_built``.  A
changed edge list is a new pair of arrays, never an in-place edit, so a
consumer may keep the pair it last read and diff it against the next.

Connectivity is a fact of the topology: :meth:`component_labels` and
:meth:`visit_order` cache the component labels and a breadth-first node
order on the identity of the current :attr:`topology` pair, and a
passing :meth:`is_connected` records "one component" and its own search
order there, so the kernel pipelines read what mobility already proved
instead of labelling and searching every interval again.  Every change
replaces the pair, which drops the cache with it.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import TopologyError
from repro.graphs import bitset
from repro.graphs.neighborhoods import NeighborhoodView, is_connected
from repro.graphs.unitdisk import (
    bfs_order,
    connected_labels,
    patch_topology,
    row_ints,
    topology_rows,
    unit_disk_adjacency,
    unit_disk_topology,
    within_radius,
)

__all__ = ["AdHocNetwork"]

#: Above this moved fraction a vectorized full rebuild beats row patching
#: (bitmask rows only; the edge-list patch is O(E) whatever moved).
_DELTA_REBUILD_FRACTION = 0.35

#: Up to this host count the network keeps bitmask rows and patches them
#: from one dense (k, n) distance block; above it, the sorted edge list
#: (mirrors ``_GRID_CUTOFF`` in repro.graphs.unitdisk).
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
        self._topo: tuple[np.ndarray, np.ndarray] | None = None
        # (topology pair, what is known of it: "connected", "labels",
        # "order"); a new pair starts empty
        self._facts: tuple[tuple, dict] | None = None

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
    def keeps_edge_list(self) -> bool:
        """Whether the kept state is the edge list :attr:`topology` (above
        the cutoff) rather than the bitmask rows :attr:`adjacency`."""
        return self.n > _GRID_DELTA_CUTOFF

    @property
    def adjacency(self) -> list[int]:
        """Open-neighborhood bitmasks, rebuilt lazily after invalidation
        (above the cutoff: derived from :attr:`topology` when read)."""
        if self._adj is None:
            if self.keeps_edge_list:
                self._adj = topology_rows(*self.topology)
                obs.count("graphs.int_rows_built")
            else:
                self._adj = unit_disk_adjacency(self._pos, self._radius)
        return self._adj

    @property
    def topology(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted directed edge list ``(indptr, dst)``.

        ``dst[indptr[v]:indptr[v + 1]]`` is ``N(v)`` ascending.  Read
        only: a change replaces the pair, so the same object comes back
        until the topology changes.
        """
        if self._topo is None:
            self._topo = unit_disk_topology(self._pos, self._radius)
        return self._topo

    @property
    def has_adjacency_cache(self) -> bool:
        """Whether the Python bitmask adjacency is currently materialized.

        Above the cutoff only :attr:`adjacency` (and the queries and
        snapshots built on it) materialize it; the mobility manager and
        the vectorized and sparse pipelines work on :attr:`topology`.
        """
        return self._adj is not None

    # -- mutation ----------------------------------------------------------

    def invalidate(self) -> None:
        """Mark the cached topology stale (call after moving positions)."""
        self._adj = None
        self._topo = None

    def move_host(self, v: int, xy) -> None:
        """Teleport a single host and invalidate the adjacency."""
        self._pos[v] = np.asarray(xy, dtype=np.float64)
        self.invalidate()

    def apply_moves(self, moved) -> int:
        """Patch the kept topology after ``moved`` hosts changed position.

        ``moved`` is an index array (or boolean mask) of hosts whose rows in
        :attr:`positions` were already updated in place.  Returns the bitmask
        of nodes whose neighbor row changed.  If nothing was built yet,
        nothing is built now (the next read builds from the positions) and
        every node is reported changed.
        """
        moved = np.asarray(moved)
        if moved.dtype == bool:
            moved = np.flatnonzero(moved)
        moved = np.atleast_1d(moved.astype(np.intp))
        n = self.n
        if moved.size == 0:
            return 0
        if (self._topo if self.keeps_edge_list else self._adj) is None:
            self.invalidate()
            return (1 << n) - 1
        # the distance arithmetic (x² + y² per pair, inclusive radius)
        # matches a full rebuild exactly, so the patched state is
        # bit-identical to one
        if self.keeps_edge_list:
            self._topo, rows = patch_topology(
                *self._topo, self._pos, self._radius, np.unique(moved)
            )
            if rows.size:
                self._adj = None
            flag = np.zeros(n, dtype=bool)
            flag[rows] = True
            return int.from_bytes(
                np.packbits(flag, bitorder="little").tobytes(), "little"
            )
        self._topo = None  # derived from the rows: rebuilt when read
        if moved.size > max(8, int(n * _DELTA_REBUILD_FRACTION)):
            return self._rebuild_and_diff()
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
        within = within_radius(pos[moved], pos, self._radius)
        rows = row_ints(np.packbits(within, axis=1, bitorder="little"))
        return [(v, row & ~(1 << v)) for v, row in zip(moved_ids, rows)]

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
        """Whether the hosts form one component.  A pass is recorded for
        :meth:`component_labels` against the current topology pair, with
        the search's visit order for :meth:`visit_order` (below the
        cutoff only if that pair is already built, and without the order:
        the check runs on the bitmask rows there)."""
        if self.keeps_edge_list:
            topo = self.topology
            order = bfs_order(*topo, [0])
            ok = len(order) == self.n
        else:
            topo, order = self._topo, None
            ok = is_connected(self.adjacency)
        if ok and topo is not None:
            facts = self._facts_of(topo)
            facts["connected"] = True
            if order is not None:
                order.flags.writeable = False
                facts.setdefault("order", order)
        return ok

    def _facts_of(self, topo: tuple) -> dict:
        """The cached facts of the topology pair ``topo``: a new pair
        starts with none."""
        if self._facts is None or self._facts[0] is not topo:
            self._facts = (topo, {})
        return self._facts[1]

    def component_labels(self) -> np.ndarray:
        """Read-only per-host component labels of :attr:`topology`: the
        minimum host id of each component, as
        :func:`repro.graphs.unitdisk.connected_labels` defines them.

        Cached on the identity of the topology pair.  After a passing
        :meth:`is_connected` they are all 0 without a labelling pass;
        otherwise they are computed once per pair.
        """
        return self._labels(self.topology)

    def _labels(self, topo: tuple) -> np.ndarray:
        facts = self._facts_of(topo)
        if "labels" not in facts:
            if facts.get("connected"):
                labels = np.zeros(self.n, dtype=np.int64)
            else:
                labels = connected_labels(*topo)
            labels.flags.writeable = False
            facts["labels"] = labels
        return facts["labels"]

    def visit_order(self) -> np.ndarray:
        """Read-only breadth-first visit order of :attr:`topology`: a
        permutation of the hosts in which graph neighbours sit close
        together, the order the CDS kernels run in (DESIGN §6
        "Cache-local node order").

        Cached on the identity of the topology pair.  A passing
        :meth:`is_connected` above the cutoff records its own search, so
        a connected lifespan pays no second one; otherwise one
        :func:`repro.graphs.unitdisk.bfs_order` runs per pair, seeded
        with host 0 on a connected topology and with every component's
        minimum (:meth:`component_labels`) on any other.  The obs
        counters ``kernels.order_reused`` and ``kernels.order_computed``
        say which of the two happened.
        """
        topo = self.topology
        facts = self._facts_of(topo)
        if "order" in facts:
            obs.count("kernels.order_reused")
        else:
            if facts.get("connected"):
                roots = np.zeros(1, dtype=np.int64)
            else:
                labels = self._labels(topo)
                roots = np.flatnonzero(labels == np.arange(self.n))
            order = bfs_order(*topo, roots)
            order.flags.writeable = False
            facts["order"] = order
            obs.count("kernels.order_computed")
        return facts["order"]

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
        """Deep copy (positions duplicated; cached topology dropped)."""
        return AdHocNetwork(self._pos, self._radius, side=self._side)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AdHocNetwork(n={self.n}, radius={self._radius}, side={self._side})"
        )
