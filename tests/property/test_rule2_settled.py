"""The settled-set commit rounds against an independent reference.

:meth:`repro.core.vectorized.BatchCDSEngine._rule2` does not replay the
scalar engine's local-minimum rounds: each round it commits the largest
candidate set whose members have a *safe* live triple (no member is a
lower-ranked candidate) and that holds every lower-ranked candidate one of
its members sits in a live triple of.  DESIGN §1 proves this removes what
the local-minimum rounds remove, because both remove what one pass over
the candidates in ascending key order removes.  That pass is the
reference here, written from the scalar engine's firing pairs alone
(:class:`SequentialRuleEngine`), beside the scalar oracle itself; the
dense engine and the sparse big tier on both membership probes must give
the same masks and :class:`PruneStats` on the inputs where the order of
commits matters most.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import reduction
from repro.core.marking import marked_mask
from repro.core.priority import SCHEMES
from repro.core.rules import RuleEngine
from repro.graphs.generators import random_connected_network
from tests.property.test_kernel_masks import (
    clique,
    hub_field,
    lone_wide_pair,
    star,
    tied_levels,
)
from tests.property.test_rule2_rounds import (
    ENGINES,
    RULE_SCHEMES,
    _assert_matches,
    _run,
    k_minus_matching,
    ladder,
)


class SequentialRuleEngine(RuleEngine):
    """Rule 2 as one pass over the candidates in ascending key order: a
    candidate goes iff one of its firing pairs is still marked."""

    def rule2_pass(self, marked: int) -> int:
        pairs = self.firing_pairs(marked)
        current = marked
        for v in sorted(pairs, key=self.keys.__getitem__):
            if any(pm & current == pm for pm in pairs[v]):
                current &= ~(1 << v)
        return current


def _prune(adj, scheme, levels, fixed_point, engine_cls):
    saved = reduction.RuleEngine
    reduction.RuleEngine = engine_cls
    try:
        return reduction.prune(
            adj, marked_mask(adj), SCHEMES[scheme], list(levels),
            fixed_point=fixed_point,
        )
    finally:
        reduction.RuleEngine = saved


def _random_field(n: int, seed: int) -> list[int]:
    return list(random_connected_network(n, rng=seed).adjacency)


INPUTS = {
    "random60": lambda: _random_field(60, 1),
    "random120": lambda: _random_field(120, 2),
    "random200": lambda: _random_field(200, 3),
    "ladder64": lambda: ladder(64),
    "K130-matching": lambda: k_minus_matching(130),
    "hub-field": hub_field,
    "lone-pair64": lambda: lone_wide_pair(64),
    "lone-pair130-spare": lambda: lone_wide_pair(130, spare=True),
    "K65": lambda: clique(65),
    "K129": lambda: clique(129),
    "star64": lambda: star(64),
    "star65": lambda: star(65),
}

_CACHE: dict = {}


def _case(name, scheme, fixed_point):
    """The input, its tied levels, the scalar oracle's result with its
    round count, and the sequential pass's result (computed once)."""
    key = (name, scheme, fixed_point)
    if key not in _CACHE:
        if name not in _CACHE:
            _CACHE[name] = INPUTS[name]()
        adj = _CACHE[name]
        levels = tied_levels(len(adj))
        with obs.capture() as reg:
            want = _prune(adj, scheme, levels, fixed_point, RuleEngine)
        rounds = reg.counters.get("rule2.candidate_rounds", 0)
        seq = _prune(adj, scheme, levels, fixed_point, SequentialRuleEngine)
        _CACHE[key] = adj, levels[None, :], want, rounds, seq
    return _CACHE[key]


@pytest.mark.parametrize("fixed_point", [False, True])
@pytest.mark.parametrize("scheme", RULE_SCHEMES)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_sequential_pass_equals_scalar_rounds(name, scheme, fixed_point):
    _, _, want, _, seq = _case(name, scheme, fixed_point)
    assert seq == want


@pytest.mark.parametrize("kind", ENGINES)
@pytest.mark.parametrize("fixed_point", [False, True])
@pytest.mark.parametrize("scheme", RULE_SCHEMES)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_kernels_equal_sequential_pass(name, scheme, fixed_point, kind):
    adj, levels, want, scalar_rounds, seq = _case(name, scheme, fixed_point)
    with obs.capture() as reg:
        got = _run(kind, [adj], scheme, levels, fixed_point=fixed_point)
    _assert_matches(got, [seq])
    _assert_matches(got, [want])
    rounds = reg.counters.get("rule2.candidate_rounds", 0)
    assert rounds <= scalar_rounds
    if scheme == "id":
        # every firing triple is safe: one commit round per firing pass
        assert rounds <= want[1].rounds


def test_tied_levels_really_tie():
    levels = tied_levels(64)
    keys = SCHEMES["el1"].keys([1] * 64, list(levels))
    # distinct floats, one energy component per integer base
    assert len({k[0] for k in keys}) == 3 < len(set(levels.tolist()))
    assert np.isclose(levels, np.round(levels), atol=1e-9).all()
