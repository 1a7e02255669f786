"""Meyer–Sanders Δ-stepping with frontier-centric, backend-pluggable relaxation.

This is the paper's parallel SSSP (§6.2).  The algorithm groups vertices
into distance buckets of width Δ; one bucket is processed at a time, and all
edge relaxations inside a bucket step are independent — that step is the
data-parallel unit the paper parallelises with OpenMP.

The kernel is split into a shared *bucket driver* and pluggable *relaxation
engines*, GBBS-style (frontier arrays in, improved-vertex arrays out):

* the driver owns the bucket schedule — a lazy bucket queue
  (:class:`_BucketQueue`, the GBBS/Julienne recipe: a vertex is filed
  once per distance improvement and never rescanned), the
  ``needs``/``in_r`` flags, the per-phase work log, deadline checkpoints,
  and footprint recording — and is the same for every backend, so each
  backend sees the identical sequence of relaxation batches;
* a ``"vectorized"`` engine (default) expands each frontier with the
  repeat/cumsum edge map over the graph's cached light/heavy split
  (:meth:`~repro.graph.csr.CSRGraph.light_heavy_split`), drops the
  candidates that cannot beat their target's distance, and reduces the
  surviving duplicate targets with one packed-key sort +
  ``np.minimum.reduceat``;
* a ``"scalar"`` engine relaxes the same batches one edge at a time in
  plain Python — the auditable reference the fast engines are verified
  bitwise against;
* an ``"mp"`` engine (:mod:`repro.parallel.mp_backend`) partitions each
  frontier across real worker processes over
  ``multiprocessing.shared_memory`` arrays.

Because the driver is shared and every engine resolves duplicate targets
with the same first-minimum-per-target rule, the three backends produce
**bitwise-identical** ``dist`` *and* ``parent`` arrays (tested property).
Per-step edge counts are logged in ``stats.phase_work`` and consumed by the
:mod:`repro.parallel` simulator to derive the thread-scaling curves of
Figure 9.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.cancel import cancellation_active, checkpoint
from repro.errors import KSPError, VertexError
from repro.graph.csr import CSRGraph
from repro.obs.tracer import get_tracer
from repro.paths import INF
from repro.sssp.result import SSSPResult, SSSPStats

__all__ = ["delta_stepping", "choose_delta", "BACKENDS"]

#: the Δ-stepping execution backends, in "reference first" order
BACKENDS = ("scalar", "vectorized", "mp")

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: bucket indices are capped here: distances are clipped to this many
#: bucket widths before the division, so neither the quotient nor its
#: int64 cast can overflow however small Δ is.  Everything past the cap
#: shares one overflow bucket, which the driver simply revisits until no
#: vertex in it improves (still exact, just Bellman–Ford-like in there).
_MAX_BUCKET = float(1 << 62)


def choose_delta(graph: CSRGraph) -> float:
    """The standard Δ heuristic: max edge weight / average out-degree.

    Meyer & Sanders show Δ = Θ(max-weight / degree) balances the number of
    bucket phases against re-relaxation work on random weights.

    Raises
    ------
    KSPError
        When the edge-weight statistics are degenerate (zero or NaN mean
        weight).  Validated CSR construction rejects such weights, but
        graphs built with ``check=False`` can smuggle them in, and the
        heuristic would otherwise return a zero/NaN Δ that the kernel
        rejects with a far less useful message.
    """
    if graph.num_edges == 0:
        return 1.0
    mean_w = float(graph.weights.mean())
    if not np.isfinite(mean_w) or mean_w <= 0.0:
        raise KSPError(
            f"cannot choose a Δ bucket width: mean edge weight is {mean_w!r} "
            "(weights must be finite and strictly positive; was the graph "
            "built with check=False?)"
        )
    avg_deg = max(graph.num_edges / max(graph.num_vertices, 1), 1.0)
    return float(graph.weights.max()) / avg_deg


def _expand_frontier(
    frontier: np.ndarray, begins: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the edge positions of every frontier vertex.

    Returns ``(edge_idx, edge_src)`` where ``edge_idx`` indexes the CSR edge
    arrays and ``edge_src`` is the frontier vertex each edge leaves from.
    Pure numpy, no Python loop: the classic repeat/cumsum expansion.
    """
    starts = begins[frontier]
    counts = ends[frontier] - starts
    gathered = int(counts.sum())  # edge count, not a path cost (RPR004)
    if gathered == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    # offset of each vertex's block inside the flat output
    block_starts = np.zeros(frontier.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=block_starts[1:])
    edge_idx = (
        np.arange(gathered, dtype=np.int64)
        - np.repeat(block_starts, counts)
        + np.repeat(starts, counts)
    )
    edge_src = np.repeat(frontier, counts)
    return edge_idx, edge_src


def _relax_batch(
    dist: np.ndarray,
    parent: np.ndarray,
    targets: np.ndarray,
    cands: np.ndarray,
    sources: np.ndarray,
) -> np.ndarray:
    """Apply a batch of relaxation requests; return the improved vertices.

    Candidates that do not beat their target's current distance are
    dropped first: a target improves exactly when its minimum candidate
    does, and the filter keeps batch order, so the earliest minimum of
    each surviving group is the same entry it was in the full batch.
    Duplicate targets are then reduced to their minimum candidate, ties
    broken by batch position (earliest wins), so ``parent`` stays
    consistent with ``dist``.  The reduction packs ``(target, position)``
    into one int64 key, sorts once, and takes per-group minima with
    ``np.minimum.reduceat`` — ~2× faster than the two-key lexsort it
    replaces, with identical winner selection (the lexsort path survives as
    the fallback for batches too large to pack).  Every group left after
    the filter improves, and the improved vertices come out ascending.
    """
    wins = cands < dist[targets]
    targets, cands, sources = targets[wins], cands[wins], sources[wins]
    bs = int(targets.size)
    if bs == 0:
        return targets
    shift = bs.bit_length()
    if int(targets.max()) < (1 << (62 - shift)):
        key = (targets << shift) | np.arange(bs, dtype=np.int64)
        key.sort()  # keys are unique: position bits break every tie
        t_sorted = key >> shift
        pos = key & ((1 << shift) - 1)
        c_sorted = cands[pos]
        group_first = np.ones(bs, dtype=bool)
        group_first[1:] = t_sorted[1:] != t_sorted[:-1]
        starts = np.flatnonzero(group_first)
        gmin = np.minimum.reduceat(c_sorted, starts)
        counts = np.diff(starts, append=bs)
        # winner = earliest batch position attaining its group's minimum;
        # gmin values are exact copies of c_sorted entries, so the equality
        # test selects group members, not approximately-close costs
        seq = np.arange(bs, dtype=np.int64)
        at_min = np.where(c_sorted == np.repeat(gmin, counts), seq, bs)
        win = pos[np.minimum.reduceat(at_min, starts)]
        best_t = t_sorted[starts]
        best_d = gmin
        best_p = sources[win]
    else:  # pragma: no cover - needs n * batch > 2^62
        order = np.lexsort((cands, targets))
        t_sorted = targets[order]
        group_first = np.ones(t_sorted.size, dtype=bool)
        group_first[1:] = t_sorted[1:] != t_sorted[:-1]
        best_t = t_sorted[group_first]
        best_d = cands[order][group_first]
        best_p = sources[order][group_first]
    dist[best_t] = best_d
    parent[best_t] = best_p
    return best_t


# ----------------------------------------------------------------------
# relaxation engines
# ----------------------------------------------------------------------
class _VectorizedEngine:
    """Batched edge-map relaxation over NumPy arrays (the default backend).

    Plain CSR graphs go through the cached light/heavy split, so selecting
    a batch's edge class is pure range slicing; compaction views (which
    carry an ``edge_mask``) fall back to per-batch boolean filtering against
    the same traversal protocol every kernel uses.
    """

    def __init__(self, graph, delta, vertex_mask, dist, parent) -> None:
        self.vertex_mask = vertex_mask
        self.dist = dist
        self.parent = parent
        begins, ends, indices, weights, edge_mask = graph.adjacency_arrays()
        if edge_mask is None and hasattr(graph, "light_heavy_split"):
            begins, light_ends, ends, indices, weights = graph.light_heavy_split(
                delta
            )
            self.light_ends = light_ends
            self.light = None
            self.edge_mask = None
        else:
            self.light_ends = None
            self.light = weights <= delta
            self.edge_mask = edge_mask
        self.begins = begins
        self.ends = ends
        self.indices = indices
        self.weights = weights

    def relax(self, frontier, light: bool, label: str, recorder):
        """Relax ``frontier``'s light or heavy edges; return ``(improved,
        batch_size)`` with ``improved`` in ascending vertex order."""
        if self.light_ends is not None:
            if light:
                edge_idx, edge_src = _expand_frontier(
                    frontier, self.begins, self.light_ends
                )
            else:
                edge_idx, edge_src = _expand_frontier(
                    frontier, self.light_ends, self.ends
                )
        else:
            edge_idx, edge_src = _expand_frontier(frontier, self.begins, self.ends)
            if edge_idx.size:
                keep = self.light[edge_idx] if light else ~self.light[edge_idx]
                if self.edge_mask is not None:
                    keep &= self.edge_mask[edge_idx]
                edge_idx, edge_src = edge_idx[keep], edge_src[keep]
        if edge_idx.size == 0:
            return _EMPTY_I64, 0
        targets = self.indices[edge_idx]
        if self.vertex_mask is not None:
            ok = self.vertex_mask[targets]
            edge_idx, edge_src, targets = edge_idx[ok], edge_src[ok], targets[ok]
            if edge_idx.size == 0:
                return _EMPTY_I64, 0
        cands = self.dist[edge_src] + self.weights[edge_idx]
        improved = _relax_batch(self.dist, self.parent, targets, cands, edge_src)
        if recorder is not None:
            recorder.record_step(label, edge_src, targets, improved)
        return improved, int(edge_idx.size)


class _ScalarEngine:
    """Per-edge Python-loop relaxation — the auditable reference backend.

    Builds the exact batches the vectorized engine would (same edge
    enumeration order, same masks), gathers candidate distances against the
    phase-start snapshot, and commits with the same first-minimum-per-target
    rule as :func:`_relax_batch` — so its results are bitwise-identical to
    the fast backends, one honest edge at a time.
    """

    def __init__(self, graph, delta, vertex_mask, dist, parent) -> None:
        self.vertex_mask = None if vertex_mask is None else vertex_mask.tolist()
        self.dist = dist
        self.parent = parent
        begins, ends, indices, weights, edge_mask = graph.adjacency_arrays()
        if edge_mask is None and hasattr(graph, "light_heavy_split"):
            begins, light_ends, ends, indices, weights = graph.light_heavy_split(
                delta
            )
            self.light_ends = light_ends.tolist()
            self.light = None
            self.edge_mask = None
        else:
            self.light_ends = None
            self.light = (weights <= delta).tolist()
            self.edge_mask = None if edge_mask is None else edge_mask.tolist()
        self.begins = begins.tolist()
        self.ends = ends.tolist()
        self.indices = indices.tolist()
        self.weights = weights.tolist()

    def relax(self, frontier, light: bool, label: str, recorder):
        dist = self.dist
        indices = self.indices
        weights = self.weights
        vmask = self.vertex_mask
        # gather: all candidate reads happen before any commit, so the
        # per-edge loop sees the same phase-start snapshot the one-shot
        # vectorised batch does
        best: dict[int, tuple[float, int]] = {}
        batch_src: list[int] = []
        batch_tgt: list[int] = []
        nedges = 0
        # one bucket's frontier; the driver checkpoints per bucket phase
        # (the documented policy in repro/cancel.py)
        for u in frontier.tolist():  # contracts: disable=CTR201 (bounded)
            if self.light_ends is not None:
                if light:
                    lo, hi = self.begins[u], self.light_ends[u]
                else:
                    lo, hi = self.light_ends[u], self.ends[u]
            else:
                lo, hi = self.begins[u], self.ends[u]
            du = float(dist[u])
            for e in range(lo, hi):
                if self.light_ends is None:
                    if self.light[e] is not light:
                        continue
                    if self.edge_mask is not None and not self.edge_mask[e]:
                        continue
                t = indices[e]
                if vmask is not None and not vmask[t]:
                    continue
                nedges += 1
                if recorder is not None:
                    batch_src.append(u)
                    batch_tgt.append(t)
                c = du + weights[e]
                cur = best.get(t)
                if cur is None or c < cur[0]:
                    best[t] = (c, u)
        if nedges == 0:
            return _EMPTY_I64, 0
        # commit: strict-< against the pre-batch distances, ascending
        # target order to match _relax_batch's improved-vertex order
        parent = self.parent
        improved: list[int] = []
        for t in sorted(best):
            c, u = best[t]
            if c < float(dist[t]):
                dist[t] = c
                parent[t] = u
                improved.append(t)
        out = (
            np.asarray(improved, dtype=np.int64) if improved else _EMPTY_I64
        )
        if recorder is not None:
            recorder.record_step(
                label,
                np.asarray(batch_src, dtype=np.int64),
                np.asarray(batch_tgt, dtype=np.int64),
                out,
            )
        return out, nedges


# ----------------------------------------------------------------------
# the shared bucket driver
# ----------------------------------------------------------------------
class _BucketQueue:
    """Lazy Δ-buckets: bucket id → vertex-array chunks, plus a min-heap of ids.

    The GBBS/Julienne bucketing recipe (Dhulipala–Blelloch–Shun): a vertex
    is filed into the bucket of its new distance each time that distance
    improves outside the bucket being processed, and is never rescanned.
    Entries go stale when their vertex is settled (``needs`` cleared) or
    improved into a lower bucket; :meth:`pop_min` drops them when their
    bucket comes up.  Every ``needs``-flagged vertex outside the current
    bucket therefore has a live entry at ``⌊dist / Δ⌋``, so the lowest
    bucket holding a live entry is the lowest bucket of any flagged vertex.
    """

    def __init__(self, dist: np.ndarray, needs: np.ndarray, delta: float) -> None:
        self.dist = dist
        self.needs = needs
        self.delta = delta
        #: distances at or past this clip to the overflow bucket
        self.cap = _MAX_BUCKET * delta
        self.chunks: dict[int, list[np.ndarray]] = {}
        self.heap: list[int] = []

    def bucket_of(self, vertices: np.ndarray) -> np.ndarray:
        """``⌊dist / Δ⌋`` of each vertex, capped at :data:`_MAX_BUCKET`."""
        return np.floor_divide(
            np.minimum(self.dist[vertices], self.cap), self.delta
        ).astype(np.int64)

    def _file(self, i: int, chunk: np.ndarray) -> None:
        slot = self.chunks.get(i)
        if slot is None:
            self.chunks[i] = [chunk]
            heapq.heappush(self.heap, i)
        else:
            slot.append(chunk)

    def insert(self, vertices: np.ndarray) -> None:
        """File each vertex under the bucket of its current distance."""
        ids = self.bucket_of(vertices)
        lo, hi = int(ids.min()), int(ids.max())
        if lo == hi:
            self._file(lo, vertices)
            return
        # one argsort groups a chunk that spans several buckets
        order = np.argsort(ids)
        ids, vertices = ids[order], vertices[order]
        cuts = (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()
        bounds = [0, *cuts, int(ids.size)]
        for b, e in zip(bounds[:-1], bounds[1:]):
            self._file(int(ids[b]), vertices[b:e])

    def pop_min(self) -> tuple[int, np.ndarray] | None:
        """``(i, frontier)`` for the lowest bucket with a live entry, or None.

        The frontier is ascending and duplicate-free (sort plus
        adjacent-diff), exactly the vertices flagged ``needs`` whose
        distance lies in bucket ``i``.
        """
        while self.heap:
            i = heapq.heappop(self.heap)
            chunks = self.chunks.pop(i)
            cand = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            cand = cand[self.needs[cand]]
            if cand.size:
                cand = cand[self.bucket_of(cand) == i]
            if cand.size == 0:
                continue
            cand.sort()
            dup = cand[1:] == cand[:-1]
            if dup.any():
                cand = np.delete(cand, np.flatnonzero(dup) + 1)
            return i, cand
        return None


def _run_buckets(
    engine,
    source: int,
    delta: float,
    stats: SSSPStats,
    deadline: float | None,
    recorder,
    needs: np.ndarray,
    in_r: np.ndarray,
    touched: list[int] | None,
) -> None:
    """Drive the bucket schedule over ``engine``; mutates engine.dist/parent.

    The driver is backend-independent: every engine receives the identical
    sequence of (frontier, edge-class) batches, which is what makes the
    backends bitwise-interchangeable.  Pending vertices live in a
    :class:`_BucketQueue`: a vertex improved outside the current bucket is
    filed once under its new bucket (again if a later improvement moves it
    lower), and stale entries are dropped lazily when their bucket is
    extracted, so no phase rescans the pending set.
    """
    dist = engine.dist
    parent = engine.parent
    dist[source] = 0.0
    parent[source] = source
    needs[source] = True
    if touched is not None:
        touched.append(int(source))
    queue = _BucketQueue(dist, needs, delta)
    queue.insert(np.asarray([source], dtype=np.int64))
    check_cancel = cancellation_active(deadline)

    while (nxt := queue.pop_min()) is not None:
        if check_cancel:
            checkpoint(deadline, "sssp.delta")
        i, frontier = nxt
        hi = (i + 1) * delta
        settles: list[np.ndarray] = []

        # ---- light-edge inner loop: may reinsert into bucket i ----
        while frontier.size:
            if check_cancel:
                checkpoint(deadline, "sssp.delta")
            needs[frontier] = False
            newly_removed = frontier[~in_r[frontier]]
            if newly_removed.size:
                in_r[newly_removed] = True
                settles.append(newly_removed)
            improved, nedges = engine.relax(frontier, True, f"light-{i}", recorder)
            stats.edges_relaxed += nedges
            stats.phases += 1
            stats.phase_work.append(nedges)
            if improved.size:
                if touched is not None:
                    touched.extend(improved.tolist())
                here = dist[improved] < hi  # improvements never drop below i·Δ
                outside = improved[~here]
                frontier = improved[here]
                if outside.size:
                    queue.insert(outside)
                needs[improved] = True
            else:
                frontier = _EMPTY_I64

        # ---- heavy edges of everything settled in bucket i, once ----
        settled_now = settles[0] if len(settles) == 1 else np.concatenate(settles)
        stats.vertices_settled += int(settled_now.size)
        improved, nedges = engine.relax(settled_now, False, f"heavy-{i}", recorder)
        stats.edges_relaxed += nedges
        stats.phases += 1
        stats.phase_work.append(nedges)
        if improved.size:
            if touched is not None:
                touched.extend(improved.tolist())
            # heavy candidates exceed i·Δ + Δ = hi, so all land in later buckets
            needs[improved] = True
            queue.insert(improved)
        in_r[settled_now] = False  # sparse reset for the next bucket


def delta_stepping(
    graph: CSRGraph,
    source: int,
    *,
    delta: float | None = None,
    vertex_mask: np.ndarray | None = None,
    footprint_recorder=None,
    deadline: float | None = None,
    backend: str = "vectorized",
    workspace=None,
    num_workers: int = 2,
    executor=None,
) -> SSSPResult:
    """Δ-stepping SSSP from ``source``.

    Parameters
    ----------
    delta:
        Bucket width; defaults to :func:`choose_delta`.  Must be finite
        and positive (``ValueError`` otherwise).
    vertex_mask:
        Optional ``bool[n]`` of *usable* vertices; masked-out vertices are
        treated as deleted (this is how the status-array compaction strategy
        runs its downstream SSSP without rebuilding the CSR).
    footprint_recorder:
        Optional :class:`repro.analysis.race.DeltaSteppingFootprints` (or
        any object with its ``record_step`` signature).  When given, every
        bucket step's real read/write footprint — frontier sources and
        relaxation targets read, improved vertices written — is recorded
        as the gather → barrier → commit phase decomposition, which the
        race detector then audits.  Diagnostics only; adds Python-loop
        overhead per recorded step and changes no result.  The mp backend
        additionally understands recorders with a ``record_mp_step`` method
        (:class:`repro.analysis.race.MPBackendFootprints`) and hands those
        the per-worker chunk decomposition instead.
    deadline:
        Absolute ``time.perf_counter()`` value after which the kernel
        cooperatively raises :class:`~repro.errors.KSPTimeout`.  Checked
        once per bucket phase (light inner step and heavy step), so the
        overshoot is bounded by one relaxation batch.
    backend:
        ``"vectorized"`` (default) — batched NumPy edge-map relaxation;
        ``"scalar"`` — the per-edge reference loop; ``"mp"`` — real-core
        shared-memory multiprocessing
        (:class:`repro.parallel.mp_backend.SharedMemoryDeltaExecutor`).
        All three produce bitwise-identical ``dist`` and ``parent``.
    workspace:
        A :class:`~repro.sssp.workspace.SSSPWorkspace` bound to ``graph``.
        When given, the run borrows the workspace's reusable Δ-stepping
        buffers (:meth:`~repro.sssp.workspace.SSSPWorkspace.acquire_delta`)
        instead of allocating O(n) arrays, and the returned result's
        ``dist``/``parent`` are *views of the live buffers* — copy them
        before the workspace's next acquisition if they must outlive it.
        Cancellation mid-run leaves the workspace reusable.  Not accepted
        by the mp backend (its state lives in shared memory).
    num_workers:
        mp backend only: worker-process count (≥ 1).
    executor:
        mp backend only: a pre-built ``SharedMemoryDeltaExecutor`` to reuse
        across runs (amortises process spawn + graph upload).  Must be
        built on ``graph`` with a matching Δ.  When omitted, a throwaway
        executor is created and torn down inside the call.

    Notes
    -----
    ``stats.phase_work`` records the edge-relaxation count of every inner
    (light) step and every heavy step; ``stats.phases`` is the number of
    such steps.  Distances equal Dijkstra's exactly (tested property).
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise VertexError(f"source {source} out of range [0, {n})")
    if vertex_mask is not None and not vertex_mask[source]:
        raise VertexError(f"source {source} is masked out")
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    if delta is None:
        delta = choose_delta(graph) if executor is None else executor.delta
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")

    stats = SSSPStats()
    tracer = get_tracer()
    touched: list[int] | None = None

    with tracer.span("sssp.delta", backend=backend):
        if backend == "mp":
            if workspace is not None:
                raise ValueError(
                    "the mp backend keeps its state in shared memory and "
                    "does not accept workspace="
                )
            from repro.parallel.mp_backend import SharedMemoryDeltaExecutor

            own_executor = executor is None
            if own_executor:
                executor = SharedMemoryDeltaExecutor(
                    graph, num_workers=num_workers, delta=delta
                )
            else:
                executor.check_compatible(graph, delta)
            needs = np.zeros(n, dtype=bool)
            in_r = np.zeros(n, dtype=bool)
            try:
                executor.begin_run(vertex_mask)
                _run_buckets(
                    executor,
                    source,
                    delta,
                    stats,
                    deadline,
                    footprint_recorder,
                    needs,
                    in_r,
                    None,
                )
                dist = executor.dist.copy()
                parent = executor.parent.copy()
            finally:
                if own_executor:
                    executor.close()
        else:
            if workspace is not None:
                if workspace.graph is not graph:
                    raise ValueError(
                        "workspace is bound to a different graph; create one "
                        "per graph"
                    )
                dist, parent, needs, in_r, touched = workspace.acquire_delta()
            else:
                dist = np.full(n, INF, dtype=np.float64)
                parent = np.full(n, -1, dtype=np.int64)
                needs = np.zeros(n, dtype=bool)
                in_r = np.zeros(n, dtype=bool)
            engine_cls = (
                _ScalarEngine if backend == "scalar" else _VectorizedEngine
            )
            engine = engine_cls(graph, delta, vertex_mask, dist, parent)
            _run_buckets(
                engine,
                source,
                delta,
                stats,
                deadline,
                footprint_recorder,
                needs,
                in_r,
                touched,
            )

    if tracer.enabled:
        tracer.add("sssp.calls")
        tracer.add("sssp.edges_relaxed", stats.edges_relaxed)
        tracer.add("sssp.vertices_settled", stats.vertices_settled)
        tracer.add("sssp.bucket_phases", stats.phases)
    return SSSPResult(source=source, dist=dist, parent=parent, stats=stats)
