"""Incremental sparse CDS pipeline: persistent CSR + dirty components.

:class:`repro.core.sparse.SparseCDSPipeline` rebuilds its CSR and
recomputes every component from scratch each interval, so mobility pays
the full N=100k cost even when a handful of hosts moved (ROADMAP item 1).
This module keeps the :class:`~repro.core.sparse.CSRBatch` alive across
intervals and recomputes only what a change can reach:

1. **Changed rows.**  For inputs that keep a topology (anything with a
   ``topology`` ``(indptr, dst)`` edge list, i.e.
   :class:`~repro.graphs.adhoc.AdHocNetwork`), the CSR *is* that edge
   list: the pipeline wraps the two arrays without copying, keeps the
   pair it last read, and diffs it against the next one
   (:func:`repro.graphs.unitdisk.topology_row_diff`, ``O(E)``).  The
   network patches its edge list after moves
   (:meth:`AdHocNetwork.apply_moves`) and replaces, never edits, the
   arrays, so the kept pair stays valid, an unchanged network hands back
   the same pair (no diff at all), and the changed-row set is *exact* —
   a mover that kept all its neighbours dirties nothing.  For raw
   adjacency inputs the rows are diffed directly
   (:func:`repro.core.delta.changed_row_flags`, the delta pipeline's
   primitive) and the CSR is rebuilt, but component reuse below still
   applies.

2. **Dirty components.**  A changed row can only affect its own (old)
   connected component: every added or removed edge has both endpoints in
   the changed set, so the union of touched old components is closed
   under the *new* adjacency too — it is recomputed wholesale as one
   sub-CSR through :meth:`SparseCDSEngine.run_detailed`, which also
   relabels it (splits and merges fall out of the engine's own
   ``connected_labels`` pass).  When the dirt covers every row the CSR
   is the network's own topology, so the network's cached labels
   (:meth:`AdHocNetwork.component_labels`) go in instead: on a connected
   network, the one component mobility already proved.  Untouched
   components keep their cached flags and per-component
   :class:`PruneStats` verbatim.  This is the
   component-granular analogue of :class:`repro.core.delta.
   DeltaCDSPipeline`'s 2-hop dirty set: on CSR, marking/Rule-1/Rule-2 are
   already evaluated per component, so the component is the natural
   dirty-closure unit.

3. **Key dirtiness.**  Energy drain changes keys without touching
   structure.  Rules compare nodes only *within* a component and every
   scheme's key is a strict total order (id tiebreak), so a clean
   component's result depends only on the relative key order of its
   members: the pipeline lexsorts ``(label, key)`` under the previous
   and the current levels and re-marks exactly the components whose
   member permutation changed; with no clean component it sorts
   nothing.  This check is taken
   for the registry schemes (``nr``/``id``/``nd`` never re-key clean
   components — degrees only change inside structurally dirty ones;
   ``el1``/``el2`` compare quantized-energy orders); a non-registry
   scheme falls back to "any energy change dirties every clean component"
   which is conservative but exact.

Aggregation replays the engine's own rule: removal counts sum over
components, ``rounds`` is the max, floored at one for rule-running
schemes.  The result — gateway mask *and* ``PruneStats`` — is
bit-identical to the stateless sparse pipeline (and hence to
:func:`repro.core.cds.compute_cds`), pinned by hypothesis properties
over random move/churn sequences in
``tests/property/test_sparse_delta_properties.py``.

A topology whose host count (or input kind) changes triggers
a cold restart — join/leave churn *within* a fixed id space is the
supported fast path, matching how the simulator models churn (hosts
moving out of range, energy death) and how the service maps tenants to
dense index spaces.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.cds import CDSResult, shadow_check
from repro.core.delta import changed_row_flags
from repro.core.marking import marking_trivially_empty
from repro.core.priority import SCHEMES, PriorityScheme, scheme_by_name
from repro.core.properties import verify_cds
from repro.core.reduction import PruneStats
from repro.core.sparse import CSRBatch, SparseCDSEngine
from repro.core.vectorized import flags_to_masks
from repro.graphs.unitdisk import topology_row_diff

__all__ = ["IncrementalSparseCDSPipeline", "sub_csr"]

_EMPTY = np.empty(0, dtype=np.int64)


def sub_csr(csr: CSRBatch, nodes: np.ndarray) -> CSRBatch:
    """Row/column-restricted CSR over ``nodes`` (ascending flat ids).

    ``nodes`` must be closed under adjacency (a union of connected
    components) so every destination remaps; local ids are the ranks of
    the global ids, an order-preserving remap — the same argument the
    engine's dense tier makes for its id tiebreaks.  When ``nodes`` is
    every row the remap is the identity, so ``csr`` comes back as is.
    """
    if len(nodes) == len(csr.indptr) - 1:
        return csr
    indptr, dst = csr.indptr, csr.dst
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    new_indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    if total == 0:
        return CSRBatch(new_indptr, _EMPTY, 1, len(nodes))
    owner = np.repeat(np.arange(len(nodes), dtype=np.int64), counts)
    within = np.arange(total, dtype=np.int64) - new_indptr[:-1][owner]
    gidx = indptr[nodes[owner]] + within
    new_dst = np.searchsorted(nodes, dst[gidx])
    return CSRBatch(new_indptr, new_dst, 1, len(nodes))


class IncrementalSparseCDSPipeline:
    """Persistent-CSR, dirty-component sparse pipeline (batch width 1).

    Duck-type compatible with the delta/vectorized/sparse pipelines
    (``compute(graph, energy=...)`` / ``reset()``) so ``run_interval``
    and the service swap it in through the same socket.  Selected by
    ``SimulationConfig(backend="sparse")`` whenever ``incremental``
    resolves to True (the default).

    Parameters match :class:`~repro.core.sparse.SparseCDSPipeline`;
    ``shadow_check`` cross-checks every interval against the scalar
    oracle (debug/CI mode — it materializes the Python-int adjacency, so
    it defeats the point at 100k but pins equivalence at test scale).
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
        """Drop all cached state (next compute is a cold start)."""
        self._mode: str | None = None
        self._n = -1
        self._csr: CSRBatch | None = None
        self._topo: tuple[np.ndarray, np.ndarray] | None = None
        self._rows: list[int] | None = None
        self._label: np.ndarray | None = None
        self._flags: np.ndarray | None = None
        self._stats: dict[int, tuple[int, int, int, int]] = {}
        self._ekey: bytes | None = None
        self._prev_result: CDSResult | None = None

    # -- fingerprints and key order ----------------------------------------

    def _energy_fingerprint(self, energy_arr: np.ndarray | None):
        """The quantized levels as bytes: what the keys compare, and (read
        back by :meth:`_key_order`) the previous interval's levels."""
        if energy_arr is None:
            return None
        return self.scheme.quantized_levels(energy_arr).tobytes()

    def _key_order(self, ekey: bytes) -> np.ndarray:
        """Node ids grouped by component label, key-ascending within, for
        the quantized levels fingerprinted as ``ekey``.

        Valid only for the registry EL schemes (the callers gate on
        that): the scheme's key columns with the label as the primary
        (grouping) column.
        """
        sch = self.scheme
        cols = sch.key_columns(
            np.arange(self._n, dtype=np.int64),
            np.diff(self._csr.indptr),
            np.frombuffer(ekey, dtype=np.float64),
        )
        return np.lexsort(cols + (self._label,))

    def _key_dirty_labels(self, ekey, struct_labels: np.ndarray) -> np.ndarray:
        """Labels of structurally-clean components whose key order moved.

        Both orders are sorted now, under the current labels and degrees,
        from the previous and the current levels.  That is exact for the
        clean components: their members kept their degrees, and each
        component occupies the same run of both orders.  With no clean
        component there is nothing to sort.
        """
        sch = self.scheme
        trusted = SCHEMES.get(sch.name) is sch
        if trusted and not sch.needs_energy:
            # nr/id/nd keys consult only ids and degrees; degrees change
            # only inside structurally dirty components
            return _EMPTY
        if ekey == self._ekey:
            return _EMPTY
        clean = np.setdiff1d(np.unique(self._label), struct_labels)
        if not trusted or self._ekey is None or clean.size == 0:
            # unknown key function (or no previous levels): any energy
            # change may reorder any component — recompute them all
            # (correct, no reuse); no clean component: nothing to sort
            return clean
        old, new = self._key_order(self._ekey), self._key_order(ekey)
        moved = np.unique(self._label[new[old != new]])
        return np.intersect1d(clean, moved, assume_unique=True)

    # -- driver --------------------------------------------------------------

    def compute(
        self, graph, energy: Sequence[float] | None = None
    ) -> CDSResult:
        """The incremental equivalent of the stateless sparse compute."""
        topo = getattr(graph, "topology", None)
        if topo is not None:
            n = len(topo[0]) - 1
            rows_src = None
        else:
            rows_src = (
                graph.adjacency if hasattr(graph, "adjacency") else graph
            )
            n = len(rows_src)
        sch = self.scheme
        sch.check_energy(energy, n)
        energy_arr = (
            np.asarray(energy, dtype=np.float64)
            if energy is not None
            else None
        )
        if n == 0:
            rounds = 1 if sch.uses_rules else 0
            return CDSResult(
                scheme=sch.name,
                gateway_mask=0,
                n=0,
                stats=PruneStats(0, 0, 0, rounds),
            )

        mode = "adj" if topo is None else "topo"
        with obs.span("cds"):
            cold = (
                self._prev_result is None
                or self._mode != mode
                or self._n != n
            )
            if obs.enabled():
                obs.count("sdelta.intervals")
            if cold:
                result = self._cold_start(graph, mode, topo, rows_src,
                                          energy_arr, n)
            else:
                result = self._warm_step(graph, topo, rows_src, energy_arr)
        return result

    def _cold_start(
        self, graph, mode, topo, rows_src, energy_arr, n
    ) -> CDSResult:
        if mode == "topo":
            csr = CSRBatch(*topo, 1, n)
            self._topo = topo
            self._rows = None
        else:
            rows = list(rows_src)
            csr = CSRBatch.from_adjacency(
                [rows], memory_budget_mb=self.engine.memory_budget_mb
            )
            self._rows = rows
            self._topo = None
        self._mode = mode
        self._n = n
        self._csr = csr
        detail = self.engine.run_detailed(
            self._with_network_labels(csr, graph), energy_arr
        )
        self._flags = detail.flags
        self._label = detail.roots[detail.comp_of]
        self._stats = {
            int(detail.roots[c]): (
                int(detail.initial_c[c]),
                int(detail.rem1_c[c]),
                int(detail.rem2_c[c]),
                int(detail.rounds_c[c]),
            )
            for c in range(len(detail.roots))
        }
        if obs.enabled():
            obs.count("sdelta.cold_starts")
        ekey = self._energy_fingerprint(energy_arr)
        return self._finish(graph, energy_arr, ekey)

    def _warm_step(self, graph, topo, rows_src, energy_arr) -> CDSResult:
        n = self._n
        if self._mode == "topo":
            changed = _EMPTY
            if topo is not self._topo:
                changed = topology_row_diff(self._topo, topo)
                self._topo = topo
                self._csr = CSRBatch(*topo, 1, n)
        else:
            neq = changed_row_flags(rows_src, self._rows)
            changed = np.flatnonzero(neq).astype(np.int64)
            if changed.size:
                rows = list(rows_src)
                self._rows = rows
                self._csr = CSRBatch.from_adjacency(
                    [rows], memory_budget_mb=self.engine.memory_budget_mb
                )

        ekey = self._energy_fingerprint(energy_arr)
        struct_labels = (
            np.unique(self._label[changed]) if changed.size else _EMPTY
        )
        key_dirty = self._key_dirty_labels(ekey, struct_labels)
        if changed.size == 0 and key_dirty.size == 0:
            # both fingerprints clean: the previous result is exact
            if obs.enabled():
                obs.count("sdelta.short_circuit")
                obs.count("cds.computed")
                obs.add("cds.size", self._prev_result.size)
            return self._prev_result

        dirty_labels = np.union1d(struct_labels, key_dirty)
        nodes = np.flatnonzero(np.isin(self._label, dirty_labels))
        sub = sub_csr(self._csr, nodes)
        sub_energy = energy_arr[nodes] if energy_arr is not None else None
        if sub is self._csr:  # every row is dirty
            sub = self._with_network_labels(sub, graph)
        detail = self.engine.run_detailed(sub, sub_energy)
        self._flags[nodes] = detail.flags
        self._label[nodes] = nodes[detail.roots[detail.comp_of]]
        for lab in dirty_labels.tolist():
            self._stats.pop(int(lab), None)
        groots = nodes[detail.roots]
        for c in range(len(groots)):
            self._stats[int(groots[c])] = (
                int(detail.initial_c[c]),
                int(detail.rem1_c[c]),
                int(detail.rem2_c[c]),
                int(detail.rounds_c[c]),
            )
        if obs.enabled():
            obs.add("sdelta.changed_rows", int(changed.size))
            obs.add("sdelta.dirty_nodes", int(len(nodes)))
            obs.add("sdelta.reused_nodes", int(self._n - len(nodes)))
        return self._finish(graph, energy_arr, ekey)

    def _with_network_labels(self, csr: CSRBatch, graph) -> CSRBatch:
        """The whole CSR with the network's cached component labels and
        visit order when it is the network's own topology; adjacency
        inputs go as they are (the engine labels and orders them)."""
        if self._mode == "topo":
            order = None
            if self.engine.may_run_kernels(self._n):
                order = graph.visit_order()
            return replace(csr, labels=graph.component_labels(), order=order)
        return csr

    def _finish(self, graph, energy_arr, ekey) -> CDSResult:
        sch = self.scheme
        initial = rem1 = rem2 = rounds = 0
        for si, s1, s2, sr in self._stats.values():
            initial += si
            rem1 += s1
            rem2 += s2
            rounds = max(rounds, sr)
        # the reference engine always runs at least one rule round
        rounds = max(rounds, 1) if sch.uses_rules else 0
        mask = flags_to_masks(self._flags[None, :])[0]
        result = CDSResult(
            scheme=sch.name,
            gateway_mask=mask,
            n=self._n,
            stats=PruneStats(initial, rem1, rem2, rounds),
        )
        self._ekey = ekey
        self._prev_result = result
        if self.verify or self.shadow_check:
            adj = self._adjacency_rows(graph)
            if self.verify and (
                mask or not marking_trivially_empty(adj)
            ):
                with obs.span("verify"):
                    verify_cds(
                        adj, mask, context=f"sparse-delta scheme={sch.name}"
                    )
            if self.shadow_check:
                shadow_check(
                    adj, result, sch, energy_arr,
                    fixed_point=self.fixed_point, pipeline="incremental sparse",
                )
        if obs.enabled():
            obs.count("cds.computed")
            obs.add("cds.size", result.size)
            obs.add("scds.rounds", rounds)
        return result

    def _adjacency_rows(self, graph) -> list[int]:
        """Python-int rows for the opt-in verify/shadow paths only."""
        if self._mode == "adj":
            return self._rows
        return list(graph.adjacency)
