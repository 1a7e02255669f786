"""Versioned live graph: a Terrace spine exporting immutable snapshots.

:class:`LiveGraph` is the seam between the mutable world and the serving
stack.  The Terrace container absorbs mutation batches; every applied
batch produces a :class:`Snapshot` — an immutable
:class:`~repro.graph.csr.CSRGraph` stamped with a monotone
version id plus the :class:`~repro.dyn.stream.MutationSummary` that
classifies what the batch *effectively* did against the pre-mutation
state.  Everything downstream (SSSP caches, prepared queries, serve
results) records the version it was computed against, so staleness is a
comparison of two integers.

Two properties the serving layer relies on:

* **stable vertex space** — tombstoned vertices become isolated in the
  snapshot rather than being renumbered, so vertex ids (and therefore
  cached distance arrays) remain meaningful across versions;
* **spliced snapshots** — version v+1 is built from version v: only the
  rows the batch can change (sources of its deletes, reweights and
  inserts, newly tombstoned vertices, and rows with an edge into one)
  are re-read from the spine, and the unchanged ``indices``/``weights``
  slices between them are copied as they are.  Each re-read row is
  :meth:`TerraceGraph.neighbors`, already liveness-filtered and
  target-sorted, so the splice is bitwise-equal to a full
  :meth:`TerraceGraph.to_csr` extraction — which stays the oracle (and
  builds version 0).  The same mutation history therefore always
  yields bitwise-identical snapshots (the CI ``dyn-serving`` job
  asserts this with ``cmp``, and ``RPR_SANITIZE=1`` compares every
  splice with ``to_csr``).  On the medium LJ graph (30k vertices, 348k
  edges, 2-vCPU Xeon) a perfbench ``live-mutate`` batch re-reads a
  median of 4 rows (15 at most) and :meth:`LiveGraph.apply` takes
  2.6 ms at the median, where a full ``to_csr`` extraction took 168 ms.

Effectiveness classification matters for the reuse certificate: a delete
of an edge that was not live, an insert toward a tombstoned target, or a
reweight to the same value must not defeat prune-bound reuse, so
:meth:`LiveGraph.apply` consults the pre-mutation state (old weights,
liveness) and records only *effective* inserts/decreases/up-edges in the
summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.sanitize import check_spliced_snapshot, sanitize_enabled_from_env
from repro.dyn.stream import MutationBatch, MutationSummary
from repro.dyn.terrace import TerraceGraph
from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.obs import get_tracer

__all__ = ["LiveGraph", "Snapshot"]


@dataclass(frozen=True)
class Snapshot:
    """One immutable version of the live graph.

    ``summary`` is ``None`` only for version 0 (the initial load — there
    is no batch to summarise).
    """

    version: int
    graph: CSRGraph
    summary: MutationSummary | None = None


class LiveGraph:
    """Mutable graph spine with monotone-versioned immutable snapshots."""

    def __init__(
        self, graph: CSRGraph | TerraceGraph, *, version: int = 0
    ) -> None:
        if isinstance(graph, TerraceGraph):
            self._terrace = graph
        else:
            self._terrace = TerraceGraph.from_csr(graph)
        if version < 0:
            raise ValueError("start version must be >= 0")
        # a non-zero start version rebuilds a spine from a checkpoint: the
        # restored replica resumes the version sequence it left off at, so
        # replayed batches line up with the survivors' version numbers
        self._version = int(version)
        self._snapshot = Snapshot(
            version=self._version, graph=self._terrace.to_csr()
        )

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The current (latest) snapshot version."""
        return self._version

    @property
    def graph(self) -> CSRGraph:
        """The current immutable snapshot's CSR graph."""
        return self._snapshot.graph

    @property
    def alive(self) -> np.ndarray:
        """Copy of the vertex liveness mask at the current version."""
        return self._terrace.alive_mask()

    @property
    def terrace(self) -> TerraceGraph:
        """The mutable spine — mutate it only through :meth:`apply`.

        Each snapshot is spliced from its predecessor by re-reading only
        the rows a batch touches, so an update made to the spine outside
        :meth:`apply` never reaches a later snapshot: the splice and
        ``to_csr`` silently diverge (``RPR_SANITIZE=1`` reports it).
        """
        return self._terrace

    @property
    def num_vertices(self) -> int:
        return self._terrace.num_vertices

    def snapshot(self) -> Snapshot:
        """The current :class:`Snapshot` (cheap: built once, by :meth:`apply`)."""
        return self._snapshot

    # ------------------------------------------------------------------
    def apply(self, batch: MutationBatch) -> Snapshot:
        """Apply one mutation batch atomically; returns the new snapshot.

        Application order is deletes → reweights → inserts → tombstones
        (see :class:`~repro.dyn.stream.MutationBatch`).  All sub-batches
        are validated against the *pre*-mutation state before anything is
        applied, so an invalid batch leaves the graph (and the version)
        untouched.
        """
        t = self._terrace
        ins_s = np.asarray(batch.insert_src, dtype=np.int64)
        ins_d = np.asarray(batch.insert_dst, dtype=np.int64)
        ins_w = np.asarray(batch.insert_w, dtype=np.float64)
        del_s = np.asarray(batch.delete_src, dtype=np.int64)
        del_d = np.asarray(batch.delete_dst, dtype=np.int64)
        rw_s = np.asarray(batch.reweight_src, dtype=np.int64)
        rw_d = np.asarray(batch.reweight_dst, dtype=np.int64)
        rw_w = np.asarray(batch.reweight_w, dtype=np.float64)
        tomb = np.asarray(batch.tombstone, dtype=np.int64)

        # all-or-nothing: validate every sub-batch against the pre-state
        # (tombstones apply last, so pre-state liveness is the right
        # check for all three edge operations)
        t._check_batch(del_s, del_d, None)
        t._check_batch(rw_s, rw_d, rw_w)
        t._check_batch(ins_s, ins_d, ins_w)
        if tomb.size and (int(tomb.min()) < 0 or int(tomb.max()) >= t.num_vertices):
            raise VertexError("tombstone vertex id out of range")

        alive_before = t.alive_mask()
        up_s: list[int] = []
        up_d: list[int] = []
        up_w: list[float] = []
        has_insert = False
        has_decrease = False

        # deletes — effective iff the edge was live before
        for u, v in zip(del_s.tolist(), del_d.tolist()):
            w_old = t.edge_weight(u, v)
            if w_old is not None:
                up_s.append(u)
                up_d.append(v)
                up_w.append(w_old)
        t.delete_edges(del_s, del_d)

        # reweights — classify by old live weight (NaN = missing = no-op;
        # a stored-but-dead-target hit does not change the snapshot)
        old_w = t.reweight_edges(rw_s, rw_d, rw_w)
        for i in range(rw_s.size):
            if not np.isfinite(old_w[i]) or not alive_before[rw_d[i]]:
                continue
            if rw_w[i] > old_w[i]:
                up_s.append(int(rw_s[i]))
                up_d.append(int(rw_d[i]))
                up_w.append(float(old_w[i]))
            elif rw_w[i] < old_w[i]:
                has_decrease = True

        # inserts — dedup keeps the lighter weight, so inserting over an
        # existing lighter edge is a no-op and over a heavier one is a
        # decrease; toward a dead target it is stored but not live
        for i in range(ins_s.size):
            u, v = int(ins_s[i]), int(ins_d[i])
            if u == v or not alive_before[v]:
                continue  # self-loops are dropped, dead targets stored-dead
            cur = t.edge_weight(u, v)
            if cur is None:
                has_insert = True
            elif float(ins_w[i]) < cur:
                has_decrease = True
        t.insert_edges(ins_s, ins_d, ins_w)

        # tombstones — only newly-killed vertices count
        newly_dead = np.unique(tomb[alive_before[tomb]])
        t.delete_vertices(tomb)

        prev = self._snapshot.graph
        rows = _rows_to_rewrite(prev, (del_s, rw_s, ins_s), newly_dead)
        graph = _splice(prev, t, rows)
        self._version += 1
        if sanitize_enabled_from_env():
            check_spliced_snapshot(graph, t.to_csr(), version=self._version)
        summary = MutationSummary(
            version=self._version,
            touched=batch.touched_vertices(),
            has_insert=has_insert,
            has_decrease=has_decrease,
            up_src=np.asarray(up_s, dtype=np.int64),
            up_dst=np.asarray(up_d, dtype=np.int64),
            up_old_w=np.asarray(up_w, dtype=np.float64),
            tombstoned=newly_dead,
        )
        self._snapshot = Snapshot(
            version=self._version, graph=graph, summary=summary
        )
        tracer = get_tracer()
        tracer.add("dyn.rows_rewritten", int(rows.size))
        tracer.add("dyn.effective_mutations", len(up_s) + int(newly_dead.size))
        return self._snapshot


def _rows_to_rewrite(
    prev: CSRGraph, sources: tuple[np.ndarray, ...], newly_dead: np.ndarray
) -> np.ndarray:
    """Sorted ids of every row a batch can change in snapshot ``prev``.

    Edge updates only change their source's row; a tombstone empties its
    own row and drops every edge into it, so the rows of ``prev`` with
    such an edge are found by one vectorised scan over ``indices``.
    """
    parts = [*sources, newly_dead]
    if newly_dead.size:
        dead = np.zeros(prev.num_vertices, dtype=bool)
        dead[newly_dead] = True
        hit = np.flatnonzero(dead[prev.indices])
        parts.append(np.searchsorted(prev.indptr, hit, side="right") - 1)
    return np.unique(np.concatenate(parts))


def _splice(prev: CSRGraph, terrace: TerraceGraph, rows: np.ndarray) -> CSRGraph:
    """Snapshot ``prev`` with ``rows`` re-read from the (mutated) spine.

    The slices of ``prev`` between rewritten rows are copied unchanged;
    ``indptr`` is the cumsum of the patched degrees.  Bitwise-equal to
    ``terrace.to_csr()`` provided ``rows`` covers every changed row.
    """
    indptr = prev.indptr
    degrees = np.diff(indptr)
    parts_t: list[np.ndarray] = []
    parts_w: list[np.ndarray] = []
    lo = 0
    for v in rows.tolist():
        hi = int(indptr[v])
        parts_t.append(prev.indices[lo:hi])
        parts_w.append(prev.weights[lo:hi])
        t, w = terrace.neighbors(v)
        parts_t.append(t)
        parts_w.append(w)
        degrees[v] = t.size
        lo = int(indptr[v + 1])
    parts_t.append(prev.indices[lo:])
    parts_w.append(prev.weights[lo:])
    new_indptr = np.zeros_like(indptr)
    np.cumsum(degrees, out=new_indptr[1:])
    # rows come from the validated spine, so the CSR invariants hold by
    # construction, exactly as for to_csr (SAN-CSR audits them)
    return CSRGraph(
        new_indptr, np.concatenate(parts_t), np.concatenate(parts_w), check=False
    )
