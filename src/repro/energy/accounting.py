"""Per-interval energy accounting.

Applies the paper's §4 step 3: "The energy level of each host is reduced by
d and d' depending on its status (gateway/non-gateway)."  One accountant
instance is owned by the lifespan simulator; it also keeps a drain ledger
(totals per status) that the analysis layer uses for energy-balance
metrics, an extension the paper's "balanced consumption" motivation calls
for but does not plot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.energy.battery import BatteryBank
from repro.energy.models import DrainModel
from repro.errors import EnergyError

__all__ = ["IntervalDrainRecord", "EnergyAccountant", "gateway_flags"]

#: The paper's d': unit drain for non-gateway hosts, network-size independent.
NON_GATEWAY_DRAIN = 1.0


@dataclass(frozen=True)
class IntervalDrainRecord:
    """What one interval's drain did."""

    interval: int
    n_gateways: int
    gateway_drain: float
    non_gateway_drain: float
    min_level_after: float
    died: tuple[int, ...]


def gateway_flags(mask: int, n: int) -> np.ndarray:
    """``(n,)`` bools of a bitmask over ``n`` hosts: one
    ``np.unpackbits`` over its little-endian bytes, no per-bit loop."""
    if mask < 0 or mask >> n:
        raise EnergyError(f"gateway mask has bits outside {n} hosts")
    raw = np.frombuffer(mask.to_bytes((n + 7) >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


class EnergyAccountant:
    """Applies status-dependent drain to a battery bank.

    Parameters
    ----------
    bank:
        The population's batteries (mutated in place).
    model:
        Gateway drain model (``d``); non-gateways always lose
        :data:`NON_GATEWAY_DRAIN` (the paper's ``d' = 1``).
    """

    def __init__(
        self,
        bank: BatteryBank,
        model: DrainModel,
        non_gateway_drain: float = NON_GATEWAY_DRAIN,
    ):
        if non_gateway_drain < 0:
            raise EnergyError("non_gateway_drain must be non-negative")
        self.bank = bank
        self.model = model
        self.dprime = float(non_gateway_drain)
        self._interval = 0
        self.total_gateway_drain = 0.0
        self.total_non_gateway_drain = 0.0

    @property
    def intervals_applied(self) -> int:
        return self._interval

    def apply(self, gateway_mask: int) -> IntervalDrainRecord:
        """Drain one update interval given the current gateway bitmask.

        An empty gateway set (complete graph snapshot) drains everyone by
        ``d'`` only — there is no backbone to work.
        """
        n = self.bank.n
        is_gw = gateway_flags(gateway_mask, n)
        n_gw = int(is_gw.sum())

        before_dead = set(self.bank.dead_hosts())
        if n_gw:
            d = self.model.gateway_drain(n, n_gw)
            drains = np.where(is_gw, d, self.dprime)
        else:
            d = 0.0
            drains = np.full(n, self.dprime)
        self.bank.drain(drains)
        self._interval += 1
        self.total_gateway_drain += d * n_gw
        self.total_non_gateway_drain += self.dprime * (n - n_gw)

        died = tuple(v for v in self.bank.dead_hosts() if v not in before_dead)
        return IntervalDrainRecord(
            interval=self._interval,
            n_gateways=n_gw,
            gateway_drain=d,
            non_gateway_drain=self.dprime,
            min_level_after=self.bank.min_level(),
            died=died,
        )
