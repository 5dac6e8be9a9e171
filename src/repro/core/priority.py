"""Priority schemes: the keys that decide which gateway survives a tie.

Every pruning rule in the paper removes a node ``v`` in favor of a coverer
``u`` when ``v`` ranks *lower* in some total order.  The four orders are:

========  =======================================  ===============
name      key(v) (lexicographic, compared low→high)  paper rules
========  =======================================  ===============
``id``    ``(id,)``                                 Rule 1, Rule 2
``nd``    ``(nd, id)``                              Rule 1a, Rule 2a
``el1``   ``(el, id)``                              Rule 1b, Rule 2b
``el2``   ``(el, nd, id)``                          Rule 1b', Rule 2b'
========  =======================================  ===============

Because ids are distinct, every key is a strict total order; the node with
the **smallest** key is the one removed.  Keeping high-degree nodes shrinks
the CDS (they cover more); keeping high-energy nodes rotates gateway duty
onto fresh batteries, which is the power-aware idea of the paper.

``nr`` (no rules) is also registered so experiment code can sweep all five
series of the paper's figures uniformly.

Energy quantization
-------------------
The paper treats energy as "multiple discrete levels".  Simulated energies
are floats; after different drain histories two hosts meant to be "at the
same level" may differ by 1e-15.  ``PriorityScheme.quantize`` (default 1e-9
grid) absorbs that noise so EL ties behave like the paper's discrete levels.
Pass ``quantum=None`` for exact comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "PriorityScheme",
    "SCHEMES",
    "PAPER_SERIES_ORDER",
    "scheme_by_name",
    "NodeAttrs",
]


@dataclass(frozen=True)
class NodeAttrs:
    """Per-node attributes a key may consult.

    ``degree`` is ``nd(v)`` in the *current* topology G (not G'); ``energy``
    is the remaining energy level ``el(v)``.
    """

    node: int
    degree: int
    energy: float


KeyFn = Callable[[NodeAttrs], tuple]


@dataclass(frozen=True)
class PriorityScheme:
    """A named total order over nodes.

    ``uses_rules`` is False only for the ``nr`` baseline (marking process
    output taken as-is).  ``uses_coverage_cases`` selects Rule-2 semantics:
    the original ID rules use the simple "minimum id among the triple" test,
    while the a/b/b' variants add the mutual-coverage case analysis of the
    paper's §3 (see :mod:`repro.core.rules`).
    """

    name: str
    key_fn: KeyFn
    uses_rules: bool = True
    uses_coverage_cases: bool = True
    quantum: float | None = 1e-9
    description: str = ""

    def key(self, v: int, degrees: Sequence[int], energy: Sequence[float] | None) -> tuple:
        """The sort key of node ``v`` (smaller key = pruned first)."""
        e = 0.0
        if energy is not None:
            e = float(energy[v])
            if self.quantum is not None:
                e = round(e / self.quantum) * self.quantum
        return self.key_fn(NodeAttrs(node=v, degree=degrees[v], energy=e))

    def keys(self, degrees: Sequence[int], energy: Sequence[float] | None) -> list[tuple]:
        """All node keys at once (used by the rule engines)."""
        return [self.key(v, degrees, energy) for v in range(len(degrees))]

    @property
    def needs_energy(self) -> bool:
        """True if the key consults energy (callers must supply levels)."""
        return self.name in ("el1", "el2")

    def check_energy(self, energy: Sequence[float] | None, n: int) -> None:
        """Reject a missing level vector (EL schemes) or one of wrong length."""
        if self.needs_energy and energy is None:
            raise ConfigurationError(
                f"scheme {self.name!r} ranks by energy level; pass energy="
            )
        if energy is not None and len(energy) != n:
            raise ConfigurationError(
                f"energy has {len(energy)} entries for {n} nodes"
            )

    def quantized_levels(self, energy) -> np.ndarray:
        """The float64 levels :meth:`key` compares, as one array.

        ``np.rint`` rounds half-to-even exactly like Python ``round``, so
        every element equals the ``e`` inside the tuple key.  Without a
        quantum a float64 input array is returned itself, not a copy.
        """
        e = np.asarray(energy, dtype=np.float64)
        q = self.quantum
        return np.rint(e / q) * q if q is not None else e

    def key_columns(self, ids, degrees, levels) -> tuple:
        """``np.lexsort`` columns (least significant first) in key order.

        Sorting by them orders nodes exactly like :meth:`key` for the
        registry schemes (``levels`` from :meth:`quantized_levels`); the
        order is read from the scheme name, so callers must check the
        scheme is the registry one before trusting it.
        """
        return {
            "nr": (ids,),
            "id": (ids,),
            "nd": (ids, degrees),
            "el1": (ids, levels),
            "el2": (ids, degrees, levels),
        }[self.name]


def _key_id(a: NodeAttrs) -> tuple:
    return (a.node,)


def _key_nd(a: NodeAttrs) -> tuple:
    return (a.degree, a.node)


def _key_el1(a: NodeAttrs) -> tuple:
    return (a.energy, a.node)


def _key_el2(a: NodeAttrs) -> tuple:
    return (a.energy, a.degree, a.node)


SCHEMES: dict[str, PriorityScheme] = {
    "nr": PriorityScheme(
        name="nr",
        key_fn=_key_id,
        uses_rules=False,
        description="marking process only, no pruning (paper series NR)",
    ),
    "id": PriorityScheme(
        name="id",
        key_fn=_key_id,
        uses_coverage_cases=False,
        description="Wu-Li Rule 1 / Rule 2 keyed on node ID (paper series ID)",
    ),
    "nd": PriorityScheme(
        name="nd",
        key_fn=_key_nd,
        description="Rule 1a / Rule 2a keyed on (node degree, ID) (paper series ND)",
    ),
    "el1": PriorityScheme(
        name="el1",
        key_fn=_key_el1,
        description="Rule 1b / Rule 2b keyed on (energy, ID) (paper series EL1)",
    ),
    "el2": PriorityScheme(
        name="el2",
        key_fn=_key_el2,
        description="Rule 1b' / Rule 2b' keyed on (energy, degree, ID) (paper series EL2)",
    ),
}

#: Order in which the paper's figures plot the series.
PAPER_SERIES_ORDER: tuple[str, ...] = ("nr", "id", "nd", "el1", "el2")


def scheme_by_name(name: str) -> PriorityScheme:
    """Look up a scheme, accepting any case; raises ConfigurationError."""
    try:
        return SCHEMES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown priority scheme {name!r}; choose from {sorted(SCHEMES)}"
        ) from None
