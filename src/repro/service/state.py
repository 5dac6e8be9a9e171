"""Mutable per-tenant network state with exact (bit-identical) replay.

A tenant is one ad hoc network: external node ids mapped to dense
indices, positions, energy levels, and a lazily maintained unit-disk
adjacency.  The contract that everything else in :mod:`repro.service`
leans on:

**State is a pure function of the applied update prefix.**  Applying the
same updates in the same order — whether live, or replayed from a
snapshot + WAL after a crash — produces byte-identical state: positions
and energies go through the same float operations in the same order, and
serialization round-trips float64 exactly (JSON numbers print via
``repr``).  :meth:`digest` pins that down to one comparable hash.

Index discipline: dense indices are assignment-ordered (a join appends,
a leave closes the gap by shifting).  Priority schemes tiebreak on the
dense index, so the mapping is part of the replayed state — which is why
it lives in the snapshot rather than being re-derived.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.graphs import bitset
from repro.graphs.neighborhoods import is_connected
from repro.graphs.unitdisk import unit_disk_adjacency
from repro.service.updates import Drain, Join, Leave, Move, Update

__all__ = ["TenantState"]


class TenantState:
    """One tenant network: membership, positions, energy, adjacency."""

    def __init__(
        self,
        *,
        radius: float = 25.0,
        side: float = 100.0,
        scheme: str = "el2",
    ):
        if radius <= 0:
            raise ConfigurationError(f"radius must be positive, got {radius}")
        if side <= 0:
            raise ConfigurationError(f"side must be positive, got {side}")
        self.radius = float(radius)
        self.side = float(side)
        self.scheme = scheme
        #: external node ids, assignment-ordered (dense index = position)
        self.ids: list[int] = []
        self._index: dict[int, int] = {}
        self.positions = np.zeros((0, 2), dtype=np.float64)
        self.energy: list[float] = []
        self._adj: list[int] = []
        #: number of updates applied since the tenant was created
        self.seq = 0

    # -- population ----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def adjacency(self) -> list[int]:
        """Open-neighborhood bitmasks over dense indices (do not mutate)."""
        return self._adj

    def index_of(self, node: int) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise TopologyError(f"node {node} is not a member") from None

    def is_connected(self) -> bool:
        return is_connected(self._adj)

    def seed_population(
        self, positions: np.ndarray, energy: list[float] | None = None
    ) -> None:
        """Install the initial population (ids ``0..n-1``), seq stays 0."""
        if self.ids:
            raise ConfigurationError("population already seeded")
        pos = np.array(positions, dtype=np.float64)
        n = len(pos)
        self.ids = list(range(n))
        self._index = {v: v for v in range(n)}
        self.positions = pos
        self.energy = [100.0] * n if energy is None else [float(e) for e in energy]
        self._adj = unit_disk_adjacency(pos, self.radius)

    # -- update application --------------------------------------------------

    def apply(self, update: Update) -> int:
        """Apply one update; returns the bitmask of adjacency rows changed.

        Membership changes (join/leave) renumber indices, so they report
        *all* rows changed.  A join appends and a leave keeps the
        survivors' relative order, which is what lets the delta pipeline
        splice either into its cached state by external id.  Invalid
        updates (joining a member, moving a ghost) raise — deliberately:
        a tenant feeding garbage is exactly what the supervisor's
        quarantine escalation is for.
        """
        if isinstance(update, Join):
            changed = self._join(update)
        elif isinstance(update, Leave):
            changed = self._leave(update)
        elif isinstance(update, Move):
            changed = self._move(update)
        elif isinstance(update, Drain):
            changed = self._drain(update)
        else:  # pragma: no cover - exhaustive over the Update union
            raise ConfigurationError(f"unknown update {update!r}")
        self.seq += 1
        return changed

    def _join(self, u: Join) -> int:
        if u.node in self._index:
            raise TopologyError(f"join of existing node {u.node}")
        v = self.n
        self._index[u.node] = v
        self.ids.append(u.node)
        self.positions = np.vstack(
            [self.positions, np.array([[u.x, u.y]], dtype=np.float64)]
        )
        self.energy.append(float(u.energy))
        row = self._disk_row(v)
        self._adj.append(row)
        for w in bitset.iter_bits(row):
            self._adj[w] |= 1 << v
        return (1 << self.n) - 1

    def _leave(self, u: Leave) -> int:
        v = self.index_of(u.node)
        del self._index[u.node]
        self.ids.pop(v)
        for i in range(v, self.n):
            self._index[self.ids[i]] = i
        self.positions = np.delete(self.positions, v, axis=0)
        self.energy.pop(v)
        # drop row v and bit v, shifting the higher bits down one place
        del self._adj[v]
        low = (1 << v) - 1
        self._adj = [(r & low) | ((r >> (v + 1)) << v) for r in self._adj]
        return (1 << self.n) - 1 if self.n else 0

    def _move(self, u: Move) -> int:
        v = self.index_of(u.node)
        self.positions[v, 0] = float(u.x)
        self.positions[v, 1] = float(u.y)
        new_row = self._disk_row(v)
        old_row = self._adj[v]
        flipped = new_row ^ old_row
        if not flipped:
            return 0
        self._adj[v] = new_row
        for u_idx in bitset.iter_bits(flipped):
            self._adj[u_idx] ^= 1 << v
        return flipped | (1 << v)

    def _disk_row(self, v: int) -> int:
        """Unit-disk neighborhood of dense index ``v`` at current positions."""
        diff = self.positions - self.positions[v]
        d2 = np.einsum("ij,ij->i", diff, diff)
        within = d2 <= self.radius * self.radius
        within[v] = False
        return bitset.mask_from_ids(np.flatnonzero(within).tolist())

    def _drain(self, u: Drain) -> int:
        v = self.index_of(u.node)
        self.energy[v] = self.energy[v] - float(u.amount)
        return 0  # keys changed, structure did not

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Canonical snapshot document (floats round-trip exactly)."""
        return {
            "version": 1,
            "radius": self.radius,
            "side": self.side,
            "scheme": self.scheme,
            "seq": self.seq,
            "ids": list(self.ids),
            "pos": [[float(x), float(y)] for x, y in self.positions],
            "energy": [float(e) for e in self.energy],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "TenantState":
        st = cls(
            radius=doc["radius"], side=doc["side"], scheme=doc["scheme"]
        )
        st.seq = int(doc["seq"])
        st.ids = [int(v) for v in doc["ids"]]
        st._index = {node: i for i, node in enumerate(st.ids)}
        st.positions = np.array(doc["pos"], dtype=np.float64).reshape(
            len(st.ids), 2
        )
        st.energy = [float(e) for e in doc["energy"]]
        st._adj = unit_disk_adjacency(st.positions, st.radius)
        return st

    def digest(self) -> str:
        """SHA-256 over the canonical document — equal iff states equal."""
        doc = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()
