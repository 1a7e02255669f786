"""What one discrete-event serving run produced: per-request logs and
the aggregate tables built from them.

:class:`QueryLog` is one request's journey through a station;
:class:`LoadReport` collects a run's logs and derives the metrics row
every run table, bench and CLI reports.  The serving fabric
(:mod:`repro.fabric.fabric`) writes these records for a single server
and for a replicated fleet alike, so both are accounted by the same
code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.serve.server import OUTCOMES

__all__ = [
    "SHED",
    "EXPIRED",
    "DISPOSITIONS",
    "QueryLog",
    "LoadReport",
    "percentile",
    "disposition_summary",
]

#: loop-level dispositions, beyond the server's four outcomes
SHED = "shed"  #: no worker and no queue room at arrival
EXPIRED = "expired"  #: budget ran out while waiting in the queue

DISPOSITIONS = OUTCOMES + (SHED, EXPIRED)


def percentile(sorted_values: list[float], q: float) -> float | None:
    """Nearest-rank percentile (inclusive), ``None`` on empty input.

    Nearest-rank rather than interpolated: every reported quantile is a
    latency that actually happened, and the arithmetic is exact — no
    float blending to vary across BLAS builds.
    """
    if not sorted_values:
        return None
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    rank = max(1, -(-int(q * len(sorted_values)) // 100))  # ceil without floats
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class QueryLog:
    """One request's journey through the station, in simulated seconds."""

    request_id: str
    source: int
    target: int
    k: int
    issued_at: float
    #: a server outcome, or :data:`SHED` / :data:`EXPIRED`
    disposition: str
    tier: str = ""
    queue_time: float = 0.0
    service_time: float = 0.0
    #: issue → response (queue + service); 0 for shed/expired
    latency: float = 0.0
    attempts: int = 0
    paths: int = 0
    #: replica that answered or last held the request (-1 = none)
    replica: int = -1
    #: hedged re-dispatches after a replica died mid-flight
    hedges: int = 0

    @property
    def served(self) -> bool:
        return self.disposition in OUTCOMES


def disposition_summary(
    logs: Iterable[QueryLog], server_counters: dict | None = None
) -> dict:
    """The unified SLO ledger: every request accounted for, in one place.

    Counts every :data:`DISPOSITIONS` member over ``logs`` (zero-filled,
    so the schema is stable across runs), plus:

    ``issued``
        total requests;
    ``answered``
        requests that got *some* response — ``complete`` + ``degraded``
        + ``partial`` (``failed`` responses carry no paths, so they do
        not count as answered);
    ``availability``
        ``answered / issued`` (1.0 on an empty run — an idle service is
        up);
    ``hedged``
        requests that needed at least one hedged re-dispatch.

    ``server_counters`` merges a server's own counter dict (e.g.
    :attr:`QueryServer.counters <repro.serve.server.QueryServer.counters>`):
    queries shed *inside* the server by admission control raise
    ``ServerOverloadError`` and bump its ``"shed"`` counter without ever
    producing a log entry, so they would otherwise vanish from the SLO
    accounting.
    """
    counts = {d: 0 for d in DISPOSITIONS}
    issued = 0
    hedged = 0
    for log in logs:
        issued += 1
        counts[log.disposition] += 1
        if log.hedges:
            hedged += 1
    if server_counters:
        extra_shed = int(server_counters.get("shed", 0))
        counts[SHED] += extra_shed
        issued += extra_shed
    answered = counts["complete"] + counts["degraded"] + counts["partial"]
    out = dict(counts)
    out["issued"] = issued
    out["answered"] = answered
    out["availability"] = round(answered / issued, 6) if issued else 1.0
    out["hedged"] = hedged
    return out


@dataclass
class LoadReport:
    """Everything one serving run produced."""

    logs: list[QueryLog]
    horizon: float
    #: most queries in flight at once, counted at each arrival instant:
    #: queued and running queries whose response is still ahead (the
    #: quantity admission control bounds)
    peak_in_flight: int = 0
    #: checkpoint ticks the clock advanced through (work proxy)
    clock_ticks: int = 0
    #: mutation batches applied from the run's mutation feed
    mutation_batches: int = 0
    #: merged per-outcome counters of every server the run mounted
    server_counters: dict[str, int] = field(default_factory=dict)
    #: request_id -> ((vertices, distance), ...) when ``keep_results``
    results: dict[str, tuple] | None = None

    def count(self, disposition: str) -> int:
        return sum(1 for log in self.logs if log.disposition == disposition)

    def dispositions(self) -> dict:
        """Unified disposition ledger over the logs and the server
        counters — see :func:`disposition_summary`."""
        return disposition_summary(self.logs, self.server_counters)

    def metrics(self) -> dict:
        """The aggregate table one run-table cell reports.

        Latency percentiles are over *served* queries (shed and expired
        requests never got a response; their rates are reported
        separately so they cannot hide in a truncated latency
        distribution).  All values are exact functions of the seeds.
        """
        logs = self.logs
        issued = len(logs)
        counts = {d: 0 for d in DISPOSITIONS}
        for log in logs:
            counts[log.disposition] += 1
        served = [log for log in logs if log.served]
        latencies = sorted(log.latency for log in served)
        queue_times = sorted(log.queue_time for log in served)
        completed = counts["complete"]
        out = {
            "queries": issued,
            "served": len(served),
            "horizon": round(self.horizon, 6),
            "throughput_qps": round(len(served) / self.horizon, 6)
            if self.horizon > 0
            else 0.0,
            "goodput_qps": round(completed / self.horizon, 6)
            if self.horizon > 0
            else 0.0,
            "latency_p50": _round(percentile(latencies, 50)),
            "latency_p99": _round(percentile(latencies, 99)),
            "latency_p999": _round(percentile(latencies, 99.9)),
            "queue_p50": _round(percentile(queue_times, 50)),
            "queue_p99": _round(percentile(queue_times, 99)),
            "peak_in_flight": self.peak_in_flight,
            "mutation_batches": self.mutation_batches,
        }
        for disposition in DISPOSITIONS:
            out[f"{disposition}_rate"] = (
                round(counts[disposition] / issued, 6) if issued else 0.0
            )
        return out


def _round(value: float | None) -> float | None:
    return round(value, 6) if value is not None else None
