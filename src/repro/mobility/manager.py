"""Drives a mobility model against a live :class:`AdHocNetwork`.

The paper's simulation regenerates the topology each interval after hosts
roam.  Since the marking process is only defined on connected graphs, the
manager offers two policies when a move disconnects the network:

* ``"accept"`` — keep the disconnected topology; the caller decides what
  to do (per-component CDS, skip interval, ...).
* ``"retry"`` — redraw the interval's moves (fresh randomness) up to
  ``max_retries`` times until the network stays connected; if all retries
  fail, keep the last *connected* positions (hosts effectively pause).
  This matches the paper's implicit assumption that the evaluated graphs
  are connected.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.space import Region2D
from repro.graphs.adhoc import AdHocNetwork

__all__ = ["MobilityManager"]


class MobilityManager:
    """Owns the (network, region, model, rng) quadruple for a simulation."""

    def __init__(
        self,
        network: AdHocNetwork,
        model,
        region: Region2D | None = None,
        *,
        on_disconnect: str = "retry",
        max_retries: int = 25,
        rng: np.random.Generator | None = None,
    ):
        if on_disconnect not in ("accept", "retry"):
            raise ConfigurationError(
                f"on_disconnect must be 'accept' or 'retry', got {on_disconnect!r}"
            )
        if max_retries < 1:
            raise ConfigurationError(f"max_retries must be >= 1, got {max_retries}")
        self.network = network
        self.model = model
        self.region = region or Region2D(side=network.side)
        self.on_disconnect = on_disconnect
        self.max_retries = max_retries
        self.rng = rng or np.random.default_rng()
        #: count of intervals where every retry produced a disconnected
        #: topology and hosts were frozen instead — a workload health metric.
        self.frozen_intervals = 0
        self.retries_used = 0

    def step(self) -> bool:
        """Advance one update interval; returns True iff topology changed.

        The topology is maintained incrementally: only the hosts that
        actually moved (and their affected neighbors) are patched via
        :meth:`AdHocNetwork.apply_moves`, which is bit-identical to a full
        rebuild, and the ``"retry"`` connectivity check runs on whatever
        the network keeps (its edge list above the dense cutoff), so
        neither policy materializes the Python bitmask rows at scale.  A
        rolled-back retry re-applies the same moved set to restore the
        previous topology exactly.  A network that has built nothing yet
        stays unbuilt under ``"accept"`` and reports every row changed.
        """
        net = self.network
        before = net.positions.copy()

        for attempt in range(self.max_retries):
            self.model.step(net.positions, self.region, self.rng)
            moved = np.flatnonzero(np.any(net.positions != before, axis=1))
            changed = net.apply_moves(moved)
            if self.on_disconnect == "accept" or net.is_connected():
                self.retries_used += attempt
                return bool(changed)
            # roll back and redraw this interval's moves
            net.positions[:] = before
            net.apply_moves(moved)

        # every retry disconnected the network: freeze hosts this interval
        self.frozen_intervals += 1
        return False
