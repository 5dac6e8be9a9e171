"""Generic Rule 1 / Rule 2 pruning engines.

All eight rules of the paper are two rule *shapes* instantiated with a
priority key (:mod:`repro.core.priority`):

**Rule 1 shape** (Rules 1, 1a, 1b, 1b') — a marked node ``v`` unmarks when
some neighbor ``u`` satisfies ``N[v] ⊆ N[u]`` and ``key(v) < key(u)``.

**Rule 2 shape** (Rules 2, 2a, 2b, 2b') — a marked node ``v`` with two
marked neighbors ``u, w`` such that ``N(v) ⊆ N(u) ∪ N(w)`` unmarks when:

* original ID semantics (``uses_coverage_cases=False``):
  ``key(v)`` is the minimum of the three keys (the paper's
  ``id(v) = min{id(v), id(u), id(w)}``);
* extended semantics (2a/2b/2b', ``uses_coverage_cases=True``) — case
  analysis on which of the triple are *covered* by the union of the other
  two's open neighborhoods:

  1. only ``v`` covered → unmark unconditionally;
  2. ``v`` and exactly one other covered → unmark iff ``v``'s key is
     smaller than that other's;
  3. all three covered → unmark iff ``key(v)`` is the strict minimum.

  The paper enumerates case 3 as sub-cases (a)/(b)/(c); the enumeration is
  literally incomplete (e.g. it omits ``nd(v) = nd(w) < nd(u)``) but every
  listed sub-case is exactly "strict lexicographic minimum", which is what
  we implement.  The paper states case 2 only for "``v`` and ``u``
  covered"; we apply the symmetric test when the covered pair is
  ``(v, w)``.  Both deviations are noted in DESIGN.md.

Application semantics
---------------------
**Rule 1** is applied simultaneously against a snapshot: every node
evaluates against the same marked set, then all removals commit at once.
This is safe for any total-order key because closed-neighborhood coverage
is transitive along ascending keys (if ``v`` defers to ``u`` and ``u`` to
``x``, then ``N[v] ⊆ N[x]`` and ``key(v) < key(x)``), so a maximal-key
coverer always survives.

**Rule 2** is applied as *iterated local-minimum rounds*: in each round
every still-marked node whose rule fires is a *candidate*, and a candidate
commits (unmarks) iff its key is smaller than every candidate among its
marked neighbors; rounds repeat until no candidate commits.  This is the
natural distributed realization (one extra candidacy broadcast per round,
see :mod:`repro.protocol.node_agent`) and it is what the paper's
one-vertex-at-a-time correctness argument actually licenses.  A naive
all-at-once pass is **unsound** for the keyed variants: case 1 removes
``v`` regardless of key, so two nodes can each cite the other's coverer in
the same pass and jointly destroy domination (observed on dense random
graphs).  For the original ID rule the iterated semantics provably removes
exactly the same set as Wu–Li's simultaneous formulation: a candidate's
coverers carry strictly larger ids, hence defer to it and survive until it
commits, and removals never create new candidates.

Rule 2 runs after Rule 1 (the paper's order) and only considers ``u, w``
still marked at that point — the paper's "if one of ``u`` and ``w`` is not
marked, ``v`` cannot be unmarked".

The property-based suite (``tests/property/test_cds_invariants.py``)
checks domination + connectivity of the result on thousands of random
graphs for every scheme.
"""

from __future__ import annotations

from typing import Sequence

from repro import obs
from repro.core.priority import PriorityScheme
from repro.graphs import bitset
from repro.graphs.neighborhoods import degree_sequence

__all__ = ["RuleEngine", "apply_rule1", "apply_rule2"]


class RuleEngine:
    """Bundles one topology snapshot with one priority scheme.

    Precomputes degrees and keys so repeated passes (fixed-point mode) and
    both rules share the work.
    """

    def __init__(
        self,
        adjacency: Sequence[int],
        scheme: PriorityScheme,
        energy: Sequence[float] | None = None,
    ):
        self.adj = list(adjacency)
        self.n = len(self.adj)
        self.scheme = scheme
        degrees = degree_sequence(self.adj)
        self.keys = scheme.keys(degrees, energy)

    # -- Rule 1 ------------------------------------------------------------

    def rule1_pass(self, marked: int) -> int:
        """One simultaneous Rule-1 pass; returns the new marked mask.

        Observability: counts are aggregated per node outside the inner
        loop so the disabled path never pays per-iteration work.
        ``rule1.candidates`` counts marked-neighbor coverer candidates
        (an upper bound on subset tests — the scan exits on first hit).
        """
        counting = obs.enabled()
        n_candidates = 0
        removed = 0
        adj = self.adj
        keys = self.keys
        m = marked
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            closed_v = adj[v] | low
            # candidate coverers are marked neighbors of v
            cand = adj[v] & marked
            if counting:
                n_candidates += bitset.popcount(cand)
            while cand:
                lu = cand & -cand
                u = lu.bit_length() - 1
                cand ^= lu
                if keys[v] < keys[u] and bitset.is_subset(closed_v, adj[u] | lu):
                    removed |= low
                    break
        if counting:
            obs.add("rule1.nodes_evaluated", bitset.popcount(marked))
            obs.add("rule1.candidates", n_candidates)
            obs.add("rule1.removed", bitset.popcount(removed))
        return marked & ~removed

    # -- Rule 2 ------------------------------------------------------------

    def firing_pairs(self, marked: int) -> dict[int, list[int]]:
        """Per marked node ``v``, the two-bit masks of its marked neighbour
        pairs ``{u, w}`` whose coverage + case analysis + key comparison
        already favor removing ``v`` (nodes without any are left out).

        Performance note (profile-driven): whether a triple ``(v, u, w)``
        *would* fire depends only on the adjacency and the (fixed) keys —
        the marked set decides merely whether ``u`` and ``w`` are still
        eligible.  So the O(deg²) coverage tests run once per node here,
        and every wave's re-check is a scan of these masks.
        """
        counting = obs.enabled()
        n_cov_tests = 0
        n_firing = 0
        adj = self.adj
        keys = self.keys
        cases = self.scheme.uses_coverage_cases

        firing_pairs: dict[int, list[int]] = {}
        m = marked
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            nv = adj[v]
            nbrs = bitset.ids_from_mask(nv & marked)
            if counting:
                # every unordered neighbor pair gets exactly one primary
                # N(v) ⊆ N(u) ∪ N(w) subset test — the paper's O(deg²) cost
                n_cov_tests += len(nbrs) * (len(nbrs) - 1) // 2
            pairs: list[int] = []
            kv = keys[v]
            for i, u in enumerate(nbrs):
                nu = adj[u]
                ku = keys[u]
                for w in nbrs[i + 1 :]:
                    nw = adj[w]
                    if not bitset.is_subset(nv, nu | nw):
                        continue
                    if not cases:
                        fire = kv < ku and kv < keys[w]
                    else:
                        cov_u = bitset.is_subset(nu, nv | nw)
                        cov_w = bitset.is_subset(nw, nu | nv)
                        if not cov_u and not cov_w:
                            fire = True
                        elif cov_u and not cov_w:
                            fire = kv < ku
                        elif cov_w and not cov_u:
                            fire = kv < keys[w]
                        else:
                            fire = kv < ku and kv < keys[w]
                    if fire:
                        pairs.append((1 << u) | (1 << w))
            if pairs:
                firing_pairs[v] = pairs
                if counting:
                    n_firing += len(pairs)
        if counting:
            obs.add("rule2.coverage_tests", n_cov_tests)
            obs.add("rule2.firing_pairs", n_firing)
        return firing_pairs

    def rule2_pass(self, marked: int) -> int:
        """One Rule-2 pass (iterated local-minimum rounds); returns the new
        marked mask.  See the module docstring for why this is the sound
        batch semantics; the firing pairs are precomputed once
        (:meth:`firing_pairs`), so a wave only checks markedness.
        """
        counting = obs.enabled()
        adj = self.adj
        keys = self.keys
        firing_pairs = self.firing_pairs(marked)

        def fires(v: int, current: int) -> bool:
            return any(pm & current == pm for pm in firing_pairs.get(v, ()))

        current = marked
        candidates = 0
        for v in firing_pairs:
            if fires(v, current):
                candidates |= 1 << v
        if counting:
            obs.add("rule2.nodes_evaluated", bitset.popcount(marked))
            obs.add("rule2.candidates_initial", bitset.popcount(candidates))
        rounds = 0
        while candidates:
            rounds += 1
            commits = 0
            m = candidates
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                rival = adj[v] & candidates
                if all(keys[v] < keys[u] for u in bitset.iter_bits(rival)):
                    commits |= low
            if not commits:  # pragma: no cover - global min always commits
                break
            current &= ~commits
            # removals never create new candidates (firing needs a marked
            # coverage pair), so re-check only the surviving ones
            nxt = 0
            m = candidates & ~commits
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                if fires(v, current):
                    nxt |= low
            candidates = nxt
        if counting:
            obs.add("rule2.candidate_rounds", rounds)
            obs.add("rule2.removed", bitset.popcount(marked & ~current))
        return current


def apply_rule1(
    adjacency: Sequence[int],
    marked: set[int],
    scheme: PriorityScheme,
    energy: Sequence[float] | None = None,
) -> set[int]:
    """Convenience wrapper: one Rule-1 pass on a marked *set*."""
    engine = RuleEngine(adjacency, scheme, energy)
    out = engine.rule1_pass(bitset.mask_from_ids(marked))
    return set(bitset.ids_from_mask(out))


def apply_rule2(
    adjacency: Sequence[int],
    marked: set[int],
    scheme: PriorityScheme,
    energy: Sequence[float] | None = None,
) -> set[int]:
    """Convenience wrapper: one Rule-2 pass on a marked *set*."""
    engine = RuleEngine(adjacency, scheme, energy)
    out = engine.rule2_pass(bitset.mask_from_ids(marked))
    return set(bitset.ids_from_mask(out))
