"""Virtual time for load experiments: the clock *is* the work done.

Reproducible load experiments cannot read the wall clock — two runs of
the same seed would time out differently and the metrics tables would
never be byte-identical.  Instead the harness runs the serving stack on
a :class:`SimClock`, installed through :func:`repro.cancel.clock_scope`,
and advances it at every cooperative cancellation checkpoint by a
per-stage cost from a :class:`CostModel`.

Checkpoint counts are a deterministic function of the algorithmic work
(settled vertices, bucket phases, scan blocks, deviation iterations), so
simulated service time — and therefore every deadline expiry, every
degradation, every queue wait — is a pure function of (graph, query
stream, cost model).  No wall-clock enters the loop anywhere.

The default cost constants are calibrated so a tiny-suite PeeK query
lands in the low milliseconds of simulated time — the same order as the
real wall times in ``BENCH_hot_path.json`` scaled down to tiny graphs —
but their *absolute* scale is irrelevant to the experiments: only the
ratios between stages and between service time and arrival rate matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from contextlib import contextmanager

from repro.cancel import clock_scope, fault_scope

__all__ = [
    "SimClock",
    "CostModel",
    "DEFAULT_COSTS",
    "virtual_time",
]


class SimClock:
    """A settable monotonic-per-query virtual clock.

    Implements the zero-argument-callable protocol
    :mod:`repro.cancel` expects from a clock, so ``clock_scope(clock)``
    routes every deadline comparison through it.  The harness *jumps*
    the clock to each query's start time (which may move backward
    relative to the previous query's finish — queries overlap in
    simulated time even though they execute one after another in real
    time) and the checkpoint hook advances it as the pipeline works.
    """

    __slots__ = ("_now", "ticks")

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        #: checkpoint-advance count (diagnostics; deterministic)
        self.ticks = 0

    def __call__(self) -> float:
        return self._now

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward (negative advances are a bug, so rejected)."""
        if seconds < 0:
            raise ValueError("SimClock cannot advance backwards")
        self._now += seconds

    def sleep(self, seconds: float) -> None:
        """Drop-in for ``time.sleep`` (the server's backoff sleeps)."""
        self.advance(max(0.0, seconds))

    def jump_to(self, t: float) -> None:
        """Set absolute time (the harness aligning to a query's start)."""
        self._now = float(t)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(t={self._now:.6f}, ticks={self.ticks})"


#: Per-checkpoint simulated cost (seconds) by stage-label prefix.  The
#: checkpoint cadence differs per stage (dijkstra: per 256 settles;
#: delta: per bucket phase; scan: per 1024 inspections; deviation loop:
#: per iteration + per spur search), so these are costs *per visit*, not
#: per unit of work — see docs/load_testing.md for the calibration note.
DEFAULT_COSTS: dict[str, float] = {
    "sssp": 2e-4,
    "prune.scan": 1e-4,
    "prune.masks": 4e-4,
    "compact": 4e-4,
    "serve.attempt": 5e-5,
    "dist": 2e-4,
}


#: vertices settled between Dijkstra cancellation checkpoints — the
#: cadence :func:`CostModel.calibrate` converts per-edge wall time into a
#: per-checkpoint cost with (see ``repro/sssp/dijkstra.py``)
SETTLES_PER_CHECKPOINT = 256


@dataclass(frozen=True)
class CostModel:
    """Stage-label prefix → simulated seconds per checkpoint visit.

    Lookup is longest-dotted-prefix (the same matching rule as
    :class:`~repro.serve.faults.FaultRule`): ``"prune.scan"`` beats
    ``"prune"`` beats the ``default``.  Frozen so a cost model can be a
    run-table cell key.

    A model built by :meth:`calibrate` additionally carries the fitted
    wall-time law (``per_edge_seconds``/``per_query_seconds``) so
    :meth:`predict_seconds` can round-trip the fit against the measured
    rows it came from.
    """

    costs: tuple[tuple[str, float], ...] = field(
        default_factory=lambda: tuple(sorted(DEFAULT_COSTS.items()))
    )
    #: cost for any stage no prefix matches (e.g. the per-iteration
    #: checkpoints of the deviation loop, labelled by algorithm name)
    default: float = 1e-4
    #: fitted seconds per relaxed edge (None until :meth:`calibrate`)
    per_edge_seconds: float | None = None
    #: fitted fixed seconds per query (intercept of the calibration fit)
    per_query_seconds: float | None = None

    @staticmethod
    def from_dict(costs: dict[str, float], default: float = 1e-4) -> "CostModel":
        return CostModel(costs=tuple(sorted(costs.items())), default=default)

    @classmethod
    def calibrate(
        cls,
        payload: dict,
        *,
        graph: str,
        variant: str | None = "workspace",
        algos: tuple[str, ...] = ("Yen", "OptYen"),
        settle_batch: int = SETTLES_PER_CHECKPOINT,
    ) -> "CostModel":
        """Fit the per-stage constants to measured ``BENCH_hot_path.json``.

        ``payload`` is the parsed benchmark file (top-level ``rows`` with
        ``graph``/``algo``/``variant``/``wall_seconds``/``edges_relaxed``
        keys, the ``bench_hot_path.py`` schema).  The fit is the affine
        law ``wall ≈ a·edges_relaxed + b`` over the deviation-algorithm
        rows of one graph family (``algos`` defaults to Yen/OptYen, whose
        wall time *is* deviation-loop edge relaxation; PeeK rows are
        excluded because their ``edges_relaxed`` is mostly the prune
        stage's Δ-stepping relaxations (``prune_edges_relaxed``), a
        different kernel with a different per-edge cost).  ``a`` becomes
        the per-edge wall cost; every stage constant is then the default ratio table
        rescaled so one SSSP checkpoint (``settle_batch`` settles at the
        family's mean degree) costs ``a · settle_batch · degree`` — the
        measured machine's speed expressed in this clock's units.

        Returns a new frozen model; :meth:`predict_seconds` applies the
        fitted law, and the round-trip contract (fit → predict within
        tolerance on the fitting rows) is tested in
        ``tests/load/test_calibrate.py``.
        """
        rows = [
            r
            for r in payload.get("rows", ())
            if r.get("graph") == graph
            and r.get("algo") in algos
            and (variant is None or r.get("variant", variant) == variant)
            and r.get("edges_relaxed")
            and r.get("wall_seconds") is not None
        ]
        if len(rows) < 2:
            raise ValueError(
                f"calibrate needs >= 2 {algos} rows for graph {graph!r} "
                f"(variant={variant!r}); payload has {len(rows)}"
            )
        edges = [float(r["edges_relaxed"]) for r in rows]
        walls = [float(r["wall_seconds"]) for r in rows]
        n = len(rows)
        mean_e = sum(edges) / n
        mean_w = sum(walls) / n
        var_e = sum((e - mean_e) ** 2 for e in edges)
        if var_e <= 0.0:
            raise ValueError(
                f"calibrate needs rows with distinct edges_relaxed for "
                f"graph {graph!r}"
            )
        cov = sum((e - mean_e) * (w - mean_w) for e, w in zip(edges, walls))
        a = cov / var_e
        b = max(0.0, mean_w - a * mean_e)
        if a <= 0.0:
            raise ValueError(
                f"calibration fit for graph {graph!r} has non-positive "
                f"per-edge cost ({a:.3e}); rows are not edge-dominated"
            )
        degree = sum(r["m"] / max(r["n"], 1) for r in rows if "m" in r and "n" in r)
        degree = degree / n if degree else 8.0
        scale = (a * settle_batch * degree) / DEFAULT_COSTS["sssp"]
        return cls(
            costs=tuple(
                (stage, cost * scale) for stage, cost in sorted(DEFAULT_COSTS.items())
            ),
            default=1e-4 * scale,
            per_edge_seconds=a,
            per_query_seconds=b,
        )

    def predict_seconds(self, edges_relaxed: float) -> float:
        """Wall seconds the calibration law predicts for one query."""
        if self.per_edge_seconds is None:
            raise ValueError(
                "predict_seconds requires a calibrated model "
                "(build one with CostModel.calibrate)"
            )
        return self.per_edge_seconds * float(edges_relaxed) + (
            self.per_query_seconds or 0.0
        )

    def cost(self, stage: str) -> float:
        best_len = -1
        best = self.default
        for prefix, cost in self.costs:
            if stage == prefix or stage.startswith(prefix + "."):
                if len(prefix) > best_len:
                    best_len = len(prefix)
                    best = cost
        return best


class _CheckpointAdvance:
    """The fault hook that turns checkpoints into time: advance, then
    delegate to the wrapped hook (a FaultInjector, usually)."""

    __slots__ = ("clock", "model", "inner")

    def __init__(
        self,
        clock: SimClock,
        model: CostModel,
        inner: Callable[[str], None] | None,
    ) -> None:
        self.clock = clock
        self.model = model
        self.inner = inner

    def __call__(self, stage: str) -> None:
        self.clock.advance(self.model.cost(stage))
        self.clock.ticks += 1
        if self.inner is not None:
            self.inner(stage)


@contextmanager
def virtual_time(
    clock: SimClock,
    model: CostModel | None = None,
    hook: Callable[[str], None] | None = None,
) -> Iterator[SimClock]:
    """Run the block on simulated time.

    Installs ``clock`` as the library clock (deadlines, budgets, server
    timing) *and* a checkpoint hook that advances it by ``model`` costs.
    Installing a hook also flips :func:`repro.cancel.cancellation_active`
    on, so kernels take their in-loop checkpoints even on deadline-less
    queries — otherwise deadline-less work would be free.

    ``hook`` chains an inner fault hook (e.g. a
    :class:`~repro.serve.faults.FaultInjector`) so seeded fault campaigns
    compose with virtual time.
    """
    model = model if model is not None else CostModel()
    with clock_scope(clock), fault_scope(_CheckpointAdvance(clock, model, hook)):
        yield clock
