"""Sparse streaming CDS engine: CSR adjacency + per-component execution.

The dense batch engine (:mod:`repro.core.vectorized`) stores every element
as packed ``(n, W)`` uint64 rows, so one topology costs ``n²/8`` bytes of
adjacency before any kernel runs — 1.25 GB at n = 100k, which is where the
10k-proven path tops out (ROADMAP item 1).  The construction itself is
purely local (2-hop marking + Rules 1/2), so its *information* cost is
``O(E)``: this module re-expresses the whole computation over a CSR edge
list and never materializes a dense row.

Layout
------
A :class:`CSRBatch` stacks ``B`` same-``n`` topologies as one flat CSR:
``indptr`` has ``B·n + 1`` entries over flat rows ``b·n + v`` and ``dst``
holds *local* destination ids sorted ascending within each row — exactly
the ``(eS, eD)`` order the dense edge table produces, so the reverse-edge
sort trick and the sorted-key membership probe both carry over.

Execution is two-tier, decided per connected component.  The components
come from the CSR's ``labels`` when it carries them (a network's cached
:meth:`~repro.graphs.adhoc.AdHocNetwork.component_labels`, free on a
connected network), else from one :func:`connected_labels` pass, and a
single big component skips the regrouping.  The tiers:

* **tiny** (≤ 2 nodes): nothing can be marked — skipped outright;
* **small** (3 ≤ size ≤ ``dense_cutoff``): components are grouped by size
  and re-packed into dense ``(k, size, W)`` sub-batches for
  :class:`BatchCDSEngine` — each component is an independent dense
  sub-problem bounded by its *own* size, not ``n``.  The node remap is
  ascending-flat-id, which preserves the relative id order every scheme
  tiebreak uses (the same argument ``repro.core.registry`` makes for its
  baseline decomposition);
* **big** (> cutoff): the dense engine's own kernels
  (:meth:`BatchCDSEngine._edge_miss` … :meth:`BatchCDSEngine._prune`) run
  over the big components' edges, with the nodes renumbered in a
  breadth-first visit order so that the probe's reads stay in cache
  (:meth:`BatchCDSEngine._run_visit_order`): the CSR's ``order`` (a
  network's cached
  :meth:`~repro.graphs.adhoc.AdHocNetwork.visit_order`) when it carries
  one, else a search from the big components' minima.  The membership
  probe ``x ∈ N(u)``,
  which only builds the per-edge miss masks, is chosen by its memory
  cost: packed ``(B·n, W)`` word rows (``B·n·W·8`` bytes, 12.5 MB at
  N = 10k) built from the edge arrays
  (:func:`repro.graphs.unitdisk._word_rows`) and read by
  the single-word gather (:func:`repro.core.vectorized._word_probe`)
  when they fit the budget, else a binary search of the sorted edge keys
  ``eS·n + eD`` (:func:`repro.core.vectorized._key_probe`), which costs
  only the edges.

Equivalence contract
--------------------
Per element, gateway flags and :class:`PruneStats` are **bit-identical**
to :func:`repro.core.cds.compute_cds` (which handles disconnected input
by the same local rules):

* marking, Rule 1, Rule 2 and the key ranks are the dense engine's exact
  formulas restricted to one component's edges — components never
  interact, and component degrees equal whole-graph degrees;
* removal counts add across components; ``rounds`` is the *max* over
  components (a stabilized component's extra passes are no-ops in the
  per-element reference loop), floored at one round for rule-running
  schemes exactly like the dense engine's degenerate path;
* the round loop is the dense engine's, with each component as its own
  group (frozen once stable or at ``max_rounds``), so ``max_rounds`` caps
  behave identically.

Scale
-----
``CSRBatch.from_positions`` builds the CSR straight from point positions
with the same grid hashing (and bit-identical distance arithmetic) as
:func:`repro.graphs.unitdisk.unit_disk_adjacency_grid`, skipping the
Python-int adjacency entirely — at N = 100k the CSR is ~18 MB where dense
rows would be 1.25 GB.  All expansions honour ``memory_budget_mb``
(see :func:`repro.core.vectorized.resolve_memory_budget_mb`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.cds import CDSResult, shadow_check
from repro.core.marking import marking_trivially_empty
from repro.core.priority import PriorityScheme, scheme_by_name
from repro.core.properties import verify_cds
from repro.core.reduction import PruneStats
from repro.core.vectorized import (
    BatchCDSEngine,
    _batch_inputs,
    _batch_results,
    _key_probe,
    _word_probe,
    chunk_bits,
    chunk_words,
    edge_table,
    flags_to_masks,
    pack_batch,
    resolve_memory_budget_mb,
    words_for,
)
from repro.errors import ConfigurationError
from repro.graphs.unitdisk import (
    _indptr,
    _sources,
    _word_rows,
    connected_labels,
    topology_row_diff,
    unit_disk_topology,
)

__all__ = [
    "DENSE_COMPONENT_CUTOFF",
    "CSRBatch",
    "SparseRunDetail",
    "connected_labels",
    "SparseCDSEngine",
    "compute_cds_sparse",
    "SparseCDSPipeline",
]

#: components at or below this size run as dense sub-batches; above it the
#: shared kernels run over the big components' edges.  The memory budget
#: bounds the dense tier's unpacked ``(k, size, W·64)`` bool sub-batch
#: (4 MB per 2048-node component), not its packed words (512 KB).
#: DESIGN §10 compares the two tiers.
DENSE_COMPONENT_CUTOFF = 2048


@dataclass(frozen=True)
class CSRBatch:
    """``B`` same-``n`` topologies as one flat CSR edge list.

    ``indptr`` is ``(B·n + 1,)`` int64; ``dst`` holds local destination
    node ids, ascending within each flat row ``b·n + v`` — the global
    ``(source, destination)`` sort order every kernel relies on.
    ``labels``, when known, are the per-flat-row component labels as
    :func:`connected_labels` defines them (the minimum flat id of each
    component), e.g. a network's
    :meth:`~repro.graphs.adhoc.AdHocNetwork.component_labels` for a CSR
    that wraps its topology; without them the engine labels the CSR.
    ``order``, when known, is the visit order the big tier's kernels run
    in: every flat row once, each element's rows within its own block of
    ``n`` ids, e.g. a network's
    :meth:`~repro.graphs.adhoc.AdHocNetwork.visit_order`; without it the
    engine searches the big components from their minima.
    """

    indptr: np.ndarray
    dst: np.ndarray
    B: int
    n: int
    labels: np.ndarray | None = None
    order: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("labels", "order"):
            got = getattr(self, name)
            if got is not None and len(got) != self.B * self.n:
                raise ConfigurationError(
                    f"{len(got)} entries of {name} for "
                    f"{self.B * self.n} flat rows"
                )

    @property
    def nnz(self) -> int:
        """Directed edge count across the whole batch."""
        return len(self.dst)

    @property
    def nbytes(self) -> int:
        """Bytes held by the CSR arrays (the memory-test yardstick)."""
        return int(self.indptr.nbytes + self.dst.nbytes)

    @classmethod
    def from_adjacency(
        cls,
        adjacencies: Sequence[Sequence[int]],
        *,
        memory_budget_mb: float | None = None,
    ) -> "CSRBatch":
        """Stack bitmask adjacency lists (all the same ``n``) into a CSR."""
        adjs = [
            list(a.adjacency) if hasattr(a, "adjacency") else list(a)
            for a in adjacencies
        ]
        B = len(adjs)
        if B == 0:
            return cls(
                np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64), 0, 0
            )
        n = len(adjs[0])
        packed = pack_batch(adjs)
        W = packed.shape[2]
        rows_flat = packed.reshape(B * n, W)
        eS, eD, _ = edge_table(rows_flat, n, chunk_bits(memory_budget_mb))
        return cls.from_sorted_edges(eS, eD, B, n)

    @classmethod
    def from_sorted_edges(cls, src, dst, B: int, n: int) -> "CSRBatch":
        """CSR of flat source rows ``src`` and local ``dst`` given in
        ascending ``(src, dst)`` order."""
        return cls(_indptr(src, B * n), dst, B, n)

    @classmethod
    def from_positions(
        cls,
        positions: np.ndarray,
        radius: float,
        *,
        memory_budget_mb: float | None = None,
    ) -> "CSRBatch":
        """Unit-disk CSR straight from ``(n, 2)`` positions (batch of 1).

        :func:`repro.graphs.unitdisk.unit_disk_topology` (the grid edge
        lists, chunked by the memory budget): the dense strategy's edge
        set, without ever allocating an ``n``-bit row.
        """
        indptr, dst = unit_disk_topology(
            positions, radius, chunk_words(memory_budget_mb)
        )
        return cls(indptr, dst, 1, len(indptr) - 1)


@dataclass(frozen=True)
class SparseRunDetail:
    """Per-component results of one :meth:`SparseCDSEngine.run_detailed`.

    All arrays are flat (batch-major, ``R = B·n`` rows).  ``roots`` holds
    each component's min flat-row id — the stable label the incremental
    pipeline keys its caches on; ``comp_of[r]`` indexes into the
    per-component arrays.  ``rounds_c`` is raw (not floored): the
    at-least-one-rule-round floor is an aggregation-time rule.
    """

    flags: np.ndarray
    comp_of: np.ndarray
    roots: np.ndarray
    initial_c: np.ndarray
    rem1_c: np.ndarray
    rem2_c: np.ndarray
    rounds_c: np.ndarray


class SparseCDSEngine:
    """Streaming per-component engine, bit-identical to ``compute_cds``.

    Components at or below ``dense_cutoff`` nodes are delegated to a
    held :class:`BatchCDSEngine` as same-size dense sub-batches; bigger
    ones run that engine's kernels.  Their membership probe is a packed
    word gather when the ``(B·n, W)`` word rows — ``B·n·⌈n/64⌉·8``
    bytes, built per call and freed once the miss masks are built —
    fit ``memory_budget_mb`` (:meth:`word_rows_fit`), and the
    sorted-edge-key search otherwise; the obs counters
    ``scds.word_probe_nodes`` and ``scds.csr_nodes`` show which one ran.
    One instance is bound to a scheme, the fixed-point mode, and a
    memory budget; ``run`` is stateless across calls.
    """

    def __init__(
        self,
        scheme: str | PriorityScheme = "id",
        *,
        fixed_point: bool = False,
        max_rounds: int = 1_000,
        memory_budget_mb: float | None = None,
        dense_cutoff: int = DENSE_COMPONENT_CUTOFF,
    ):
        self.scheme = (
            scheme_by_name(scheme) if isinstance(scheme, str) else scheme
        )
        self.fixed_point = fixed_point
        self.max_rounds = max_rounds
        self.memory_budget_mb = resolve_memory_budget_mb(memory_budget_mb)
        self.dense_cutoff = int(dense_cutoff)
        self._dense = BatchCDSEngine(
            self.scheme,
            fixed_point=fixed_point,
            max_rounds=max_rounds,
            memory_budget_mb=self.memory_budget_mb,
        )

    def may_run_kernels(self, R: int) -> bool:
        """Whether a CSR of ``R`` flat rows can hold a component above
        the dense cutoff, the only one that runs the shared kernels (and
        so needs a visit order)."""
        return R > self.dense_cutoff

    def word_rows_fit(self, B: int, n: int) -> bool:
        """Whether the big tier's packed word rows fit the memory budget.

        The rows span every flat id, ``B·n`` rows of ``⌈n/64⌉`` words,
        whatever share of them the big components own.
        """
        rows_bytes = B * n * words_for(n) * 8
        return rows_bytes <= self.memory_budget_mb * (1 << 20)

    # -- dense tier --------------------------------------------------------

    def _run_dense_groups(
        self,
        comps: np.ndarray,
        sizes: np.ndarray,
        comp_of: np.ndarray,
        eS: np.ndarray,
        eDf: np.ndarray,
        energy_flat: np.ndarray | None,
        flags: np.ndarray,
        initial_c: np.ndarray,
        rem1_c: np.ndarray,
        rem2_c: np.ndarray,
        rounds_c: np.ndarray,
    ) -> None:
        """Run small components as same-size dense sub-batches (in place).

        Nodes are remapped ascending by flat id, so every id tiebreak
        keeps its relative order and the dense result transplants back
        bit-identically.
        """
        R = len(comp_of)
        C = len(sizes)
        # nodes grouped by component, ascending flat id within each
        order_nodes = np.argsort(comp_of, kind="stable")
        comp_starts = np.cumsum(sizes) - sizes
        local_of = np.empty(R, dtype=np.int64)
        local_of[order_nodes] = (
            np.arange(R, dtype=np.int64) - comp_starts[comp_of[order_nodes]]
        )
        slot = np.full(C, -1, dtype=np.int64)
        budget_bytes = max(1 << 20, int(self.memory_budget_mb * (1 << 20)))
        for nc in np.unique(sizes[comps]):
            nc = int(nc)
            group = comps[sizes[comps] == nc]
            Wc = words_for(nc)
            ncols = Wc * 64
            # k components of nc nodes cost k·nc·ncols unpacked bools
            kper = max(1, budget_bytes // (nc * ncols))
            for glo in range(0, len(group), kper):
                gsel = group[glo : glo + kper]
                kc = len(gsel)
                slot[gsel] = np.arange(kc)
                nodes = (
                    comp_starts[gsel][:, None]
                    + np.arange(nc, dtype=np.int64)[None, :]
                )
                nodes = order_nodes[nodes]  # (kc, nc) flat ids, ascending
                in_group = np.zeros(C, dtype=bool)
                in_group[gsel] = True
                esel = in_group[comp_of[eS]]
                es, ed = eS[esel], eDf[esel]
                bits = np.zeros((kc, nc, ncols), dtype=bool)
                bits[slot[comp_of[es]], local_of[es], local_of[ed]] = True
                packed = np.packbits(bits, axis=2, bitorder="little")
                packed = packed.view(np.uint64)
                sub_energy = None
                if energy_flat is not None:
                    sub_energy = energy_flat[nodes]
                sub_flags, sub_stats = self._dense.run(packed, sub_energy)
                flags[nodes.ravel()] = sub_flags.ravel()
                for i, c in enumerate(gsel.tolist()):
                    st = sub_stats[i]
                    initial_c[c] = st.initial_marked
                    rem1_c[c] = st.removed_rule1
                    rem2_c[c] = st.removed_rule2
                    rounds_c[c] = st.rounds
                slot[gsel] = -1

    # -- driver ------------------------------------------------------------

    def run(
        self, csr: CSRBatch, energy: np.ndarray | None = None
    ) -> tuple[np.ndarray, list[PruneStats]]:
        """Marking + pruning for every batch element.

        Returns ``(B, n)`` gateway flags and one :class:`PruneStats` per
        element, bit-identical to ``compute_cds`` per element (and hence
        to :meth:`BatchCDSEngine.run` on the packed batch).
        """
        B, n = csr.B, csr.n
        uses_rules = self.scheme.uses_rules
        if B == 0 or n == 0:
            rounds = 1 if uses_rules else 0
            return (
                np.zeros((B, n), dtype=bool),
                [PruneStats(0, 0, 0, rounds)] * B,
            )
        d = self.run_detailed(csr, energy)
        comp_elem = d.roots // n
        initial_b = np.zeros(B, dtype=np.int64)
        rem1_b = np.zeros(B, dtype=np.int64)
        rem2_b = np.zeros(B, dtype=np.int64)
        rounds_b = np.zeros(B, dtype=np.int64)
        np.add.at(initial_b, comp_elem, d.initial_c)
        np.add.at(rem1_b, comp_elem, d.rem1_c)
        np.add.at(rem2_b, comp_elem, d.rem2_c)
        np.maximum.at(rounds_b, comp_elem, d.rounds_c)
        if uses_rules:
            # the reference engine always runs at least one rule round
            rounds_b = np.maximum(rounds_b, 1)
        else:
            rounds_b[:] = 0

        stats = [
            PruneStats(
                int(initial_b[b]),
                int(rem1_b[b]),
                int(rem2_b[b]),
                int(rounds_b[b]),
            )
            for b in range(B)
        ]
        if obs.enabled():
            obs.add("scds.marked", int(initial_b.sum()))
            obs.add("scds.final", int(d.flags.sum()))
            obs.add("scds.rounds", int(rounds_b.sum()))
        return d.flags.reshape(B, n), stats

    def run_detailed(
        self, csr: CSRBatch, energy: np.ndarray | None = None
    ) -> "SparseRunDetail":
        """One engine pass returning *per-component* results.

        The per-element aggregation :meth:`run` performs (sum removals,
        max rounds, floor at one rule round) is left to the caller, which
        is what lets :class:`repro.core.sparse_delta.
        IncrementalSparseCDSPipeline` recompute a dirty subset of
        components and splice cached stats for the rest.  Requires a
        non-degenerate batch (``B ≥ 1`` and ``n ≥ 1``).

        The components come from ``csr.labels`` when the CSR carries
        them, else from one :func:`connected_labels` pass.  One component
        bigger than ``dense_cutoff`` (labels all 0) skips the regrouping
        and hands the kernels the CSR's own degrees and destinations,
        renumbered in ``csr.order`` (or a search from row 0).
        """
        B, n = csr.B, csr.n
        if B * n * n >= 1 << 62:
            raise ConfigurationError(
                f"edge keys for B={B}, n={n} overflow int64; split the batch"
            )
        R = B * n
        indptr, dst, labels = csr.indptr, csr.dst, csr.labels
        deg = np.diff(indptr)
        # flat destination rows: a single element's are its local ids
        eDf = dst
        if B > 1:
            eS = _sources(indptr)
            eDf = eS - eS % n + dst
            del eS

        with obs.span("cds_sparse"):
            reused = labels is not None
            with obs.span("components"):
                if not reused:
                    labels = connected_labels(indptr, eDf)
                if R > self.dense_cutoff and not labels.any():
                    # one big component: no regrouping
                    roots = np.zeros(1, dtype=np.int64)
                    comp_of = np.zeros(R, dtype=np.int64)
                    sizes = np.array([R], dtype=np.int64)
                else:
                    roots, comp_of = np.unique(labels, return_inverse=True)
                    sizes = np.bincount(comp_of)
            C = len(roots)

            energy_flat = None
            if energy is not None:
                energy_flat = np.asarray(energy, dtype=np.float64).reshape(R)

            flags = np.zeros(R, dtype=bool)
            initial_c = np.zeros(C, dtype=np.int64)
            rem1_c = np.zeros(C, dtype=np.int64)
            rem2_c = np.zeros(C, dtype=np.int64)
            rounds_c = np.zeros(C, dtype=np.int64)

            small = (sizes >= 3) & (sizes <= self.dense_cutoff)
            small_ids = np.flatnonzero(small)
            big = sizes > self.dense_cutoff

            if obs.enabled():
                obs.count("scds.batches")
                obs.count(
                    "scds.labels_reused" if reused else "scds.labels_computed"
                )
                obs.add("scds.elements", B)
                obs.add("scds.components", C)
                obs.add("scds.edges", len(dst))
                obs.add("scds.dense_nodes", int(sizes[small].sum()))
                big_nodes = int(sizes[big].sum())
                obs.add("scds.csr_nodes", big_nodes)
                obs.add(
                    "scds.word_probe_nodes",
                    big_nodes if self.word_rows_fit(B, n) else 0,
                )

            if len(small_ids):
                self._run_dense_groups(
                    small_ids, sizes, comp_of, _sources(indptr), eDf,
                    energy_flat, flags, initial_c, rem1_c, rem2_c, rounds_c,
                )

            if big.any():
                self._run_big(
                    big, roots, comp_of, deg, eDf, csr.order,
                    energy_flat, B, n, flags,
                    initial_c, rem1_c, rem2_c, rounds_c,
                )

            return SparseRunDetail(
                flags=flags,
                comp_of=comp_of,
                roots=roots,
                initial_c=initial_c,
                rem1_c=rem1_c,
                rem2_c=rem2_c,
                rounds_c=rounds_c,
            )

    def _run_big(
        self, big, roots, comp_of, deg, eDf, order,
        energy_flat, B, n, flags,
        initial_c, rem1_c, rem2_c, rounds_c,
    ) -> None:
        """Components above the dense cutoff, on the shared kernels.

        The kernels run in visit order
        (:meth:`BatchCDSEngine._run_visit_order`): the CSR's ``order``
        when it carries one, else a search from the big components'
        minima ``roots[big]``.  The miss masks are built with the word
        gather when the rows fit the budget and the edge-key search
        otherwise; the round loop treats each component as a group
        (rounds count while it is active, it freezes once stable or at
        ``max_rounds``), so the aggregate stats match the reference loop.
        When every component is big the kernels read the CSR's degrees
        and destinations as given (none of the kernels writes to its
        inputs).
        """
        C = len(initial_c)
        dense = self._dense
        with obs.span("edge_table"):
            if big.all():
                bdeg, bdst = deg, eDf
            else:
                bignode = big[comp_of]
                bdst = eDf[np.repeat(bignode, deg)]
                bdeg = np.where(bignode, deg, 0)
        rank = None
        if self.scheme.uses_rules:
            energy_arr = None
            if energy_flat is not None:
                energy_arr = energy_flat.reshape(B, n)
            rank = dense._ranks(deg, energy_arr, B, n)
        fit = self.word_rows_fit(B, n)

        def probe(eS, eD, keys):
            if fit:
                return _word_probe(_word_rows(eS, eD, B * n, n))
            return _key_probe(keys, n)

        # components are closed, so every reverse edge is itself big
        marked0, pruned = dense._run_visit_order(
            order, roots[big], bdeg, bdst, rank, comp_of, big, B, n, probe
        )
        mcomps = comp_of[np.flatnonzero(marked0)]
        if len(mcomps):
            initial_c += np.bincount(mcomps, minlength=C)
        if pruned is None:
            flags |= marked0
            return
        current, rounds, rem1, rem2 = pruned
        rounds_c += rounds
        rem1_c += rem1
        rem2_c += rem2
        flags |= current


def compute_cds_sparse(
    adjacencies: Sequence[Sequence[int]],
    scheme: str | PriorityScheme = "id",
    energies=None,
    *,
    fixed_point: bool = False,
    verify: bool = False,
    memory_budget_mb: float | None = None,
    dense_cutoff: int = DENSE_COMPONENT_CUTOFF,
) -> list[CDSResult]:
    """Sparse batched :func:`repro.core.cds.compute_cds` (same contract as
    :func:`repro.core.vectorized.compute_cds_batch`, different substrate).
    """
    sch, adjs, energy_arr = _batch_inputs(adjacencies, scheme, energies)
    if not adjs:
        return []
    csr = CSRBatch.from_adjacency(adjs, memory_budget_mb=memory_budget_mb)
    engine = SparseCDSEngine(
        sch,
        fixed_point=fixed_point,
        memory_budget_mb=memory_budget_mb,
        dense_cutoff=dense_cutoff,
    )
    flags, stats = engine.run(csr, energy_arr)
    return _batch_results(sch, adjs, flags, stats, verify, "sparse")


class SparseCDSPipeline:
    """Per-interval pipeline on the sparse engine (batch width 1).

    Duck-type compatible with the delta/vectorized pipelines
    (``compute(graph, energy=...)`` / ``reset()``) so ``run_interval``
    swaps it in through the same socket.  Recomputes from scratch every
    interval, except that an interval whose graph (adjacency rows, or
    topology edge list) *and* quantized-energy fingerprint both match
    the previous one
    short-circuits to the cached result (the same fingerprint pair
    :class:`repro.core.delta.DeltaCDSPipeline` checks) — quantization
    follows ``scheme.quantum``, exactly what ``PriorityScheme.key``
    applies, so an unchanged fingerprint implies unchanged keys for any
    scheme.  For incremental recomputation of *changed* intervals see
    :class:`repro.core.sparse_delta.IncrementalSparseCDSPipeline`.
    """

    def __init__(
        self,
        scheme: str | PriorityScheme,
        *,
        fixed_point: bool = False,
        verify: bool = False,
        shadow_check: bool = False,
        memory_budget_mb: float | None = None,
    ):
        self.scheme = (
            scheme_by_name(scheme) if isinstance(scheme, str) else scheme
        )
        self.fixed_point = fixed_point
        self.verify = verify
        self.shadow_check = shadow_check
        self.engine = SparseCDSEngine(
            self.scheme,
            fixed_point=fixed_point,
            memory_budget_mb=memory_budget_mb,
        )
        self.reset()

    def reset(self) -> None:
        """Drop the short-circuit fingerprints (next compute runs fully)."""
        self._prev_adj: list[int] | None = None
        self._prev_topo: tuple[np.ndarray, np.ndarray] | None = None
        self._prev_ekey: bytes | None = None
        self._prev_result: CDSResult | None = None

    def _unchanged(self, adj_src, topo, n: int) -> bool:
        """Whether the input holds the previous call's graph: the same
        topology pair (or a zero row diff against it), or equal rows."""
        if topo is not None:
            prev = self._prev_topo
            return prev is topo or (
                prev is not None
                and len(prev[0]) == n + 1
                and topology_row_diff(prev, topo).size == 0
            )
        return (
            self._prev_adj is not None
            and len(self._prev_adj) == n
            and not np.not_equal(
                np.asarray(adj_src, dtype=object),
                np.asarray(self._prev_adj, dtype=object),
            ).any()
        )

    def compute(
        self, graph, energy: Sequence[float] | None = None
    ) -> CDSResult:
        """The sparse equivalent of :func:`compute_cds` (one element).

        A graph with a ``topology`` edge list (an ``AdHocNetwork``) is
        wrapped as the CSR directly, with the network's cached component
        labels; its bitmask rows are read only for ``verify`` /
        ``shadow_check``.
        """
        topo = getattr(graph, "topology", None)
        adj_src = None
        if topo is None:
            adj_src = graph.adjacency if hasattr(graph, "adjacency") else graph
            n = len(adj_src)
        else:
            n = len(topo[0]) - 1
        sch = self.scheme
        sch.check_energy(energy, n)
        ekey = (
            None if energy is None else sch.quantized_levels(energy).tobytes()
        )
        if (
            self._prev_result is not None
            and self._prev_ekey == ekey
            and self._unchanged(adj_src, topo, n)
        ):
            # unchanged graph + unchanged quantized energies: the rebuild
            # would reproduce the previous interval bit for bit, and the
            # defensive row copy below is skipped along with it
            if obs.enabled():
                obs.count("scds.short_circuit")
                obs.count("cds.computed")
                obs.add("cds.size", self._prev_result.size)
            return self._prev_result
        adj = None if topo is not None else list(adj_src)
        with obs.span("cds"):
            if topo is not None:
                order = None
                if self.engine.may_run_kernels(n):
                    order = graph.visit_order()
                csr = CSRBatch(*topo, 1, n, graph.component_labels(), order)
            else:
                csr = CSRBatch.from_adjacency(
                    [adj], memory_budget_mb=self.engine.memory_budget_mb
                )
            energy_arr = None
            if energy is not None:
                energy_arr = np.asarray(energy, dtype=np.float64)[None, :]
            flags, stats = self.engine.run(csr, energy_arr)
            mask = flags_to_masks(flags)[0]
            result = CDSResult(
                scheme=sch.name, gateway_mask=mask, n=n, stats=stats[0]
            )
            if adj is None and (self.verify or self.shadow_check):
                adj = list(graph.adjacency)
            if self.verify and (mask or not marking_trivially_empty(adj)):
                with obs.span("verify"):
                    verify_cds(
                        adj, mask, context=f"sparse scheme={sch.name}"
                    )
            if self.shadow_check:
                shadow_check(
                    adj, result, sch, energy,
                    fixed_point=self.fixed_point, pipeline="sparse",
                )
            if obs.enabled():
                obs.count("cds.computed")
                obs.add("cds.size", result.size)
        self._prev_adj = None if topo is not None else adj
        self._prev_topo = topo
        self._prev_ekey = ekey
        self._prev_result = result
        return result
