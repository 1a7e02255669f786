"""``ServingFabric`` — the one discrete-event serving loop.

Every simulated serving run in the repo goes through this loop: a
single :class:`~repro.serve.QueryServer` under load
(:class:`~repro.load.harness.LoadHarness`, the run-table runner,
``peek-load``, ``peek-dyn``) as much as a replicated fleet under seeded
kills (``peek-fabric``).  A run interleaves up to five event streams on
one simulated timeline, in a fixed priority order at equal instants
(recoveries → heartbeats → mutations → query arrivals):

* **queries** — open-loop arrivals, a replayed trace, or a
  :class:`~repro.load.arrivals.ClosedLoop` user population, routed by
  shard through the bounded-load consistent-hash
  :class:`~repro.fabric.router.Router` and served *eagerly* on the
  shared :class:`~repro.load.simclock.SimClock`: the clock jumps to the
  query's start instant, the real pipeline advances it per cooperative
  checkpoint, and the completion instant is booked on the replica;
* **mutations** — each :class:`~repro.dyn.stream.MutationBatch` is
  applied to every serving replica (and, in a fleet, to the
  authoritative :class:`~repro.dyn.live.LiveGraph` first, broadcast
  under stage ``fabric.mutate``); dead or recovering replicas catch up
  from the batch log during recovery;
* **heartbeats** — every ``heartbeat_interval`` simulated seconds the
  fabric's :class:`~repro.distributed.comm.SimComm` runs a barrier
  (stage ``fabric.heartbeat``); a seeded
  :class:`~repro.distributed.comm.FaultPlan` kill surfaces here as
  :class:`~repro.errors.RankFailure`, exactly like the distributed
  solvers observe node loss;
* **kills** — the dead replica is drained: responses already delivered
  stand, uncommitted flights are *hedged* — re-dispatched to a
  surviving replica under the query's original deadline (wait burns
  budget, so a hedge can still expire honestly);
* **recoveries** — :class:`~repro.fabric.supervisor.FabricSupervisor`
  restores the shard snapshots from the CRC-checked store, the replica
  replays the mutation batches it missed, its rebuilt state is verified
  byte-equal to the authority, and it rejoins the ring (time-to-recovery
  is deterministic: restore latency + bytes + per-batch replay).

A fabric with one provisioned replica and no fault plan has nothing to
fail over to, so it runs *bare*: its one server serves the graph as
given (a static CSR stays static — cloning it into a ``LiveGraph`` would
switch on the versioned solver's prepared-decision memo and change
answers), and there are no heartbeats, checkpoints or recoveries.  That
is the single-server case; its report is a plain
:class:`~repro.load.report.LoadReport`.

Everything downstream of the seeds is deterministic, so a report —
availability, latency percentiles under failure, disposition counts,
time-to-recovery per kill — is reproducible byte-for-byte.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields
from itertools import islice
from random import Random
from typing import Any, Iterable, Iterator

import numpy as np

from repro.distributed.comm import CommModel, FaultPlan, SimComm
from repro.dyn.live import LiveGraph
from repro.dyn.terrace import TerraceGraph
from repro.errors import RankFailure, SanitizerError
from repro.fabric.elastic import ElasticEvent, ElasticPolicy
from repro.fabric.replica import (
    ACTIVE,
    DEAD,
    DRAINING,
    RECOVERING,
    STANDBY,
    Flight,
    Replica,
)
from repro.fabric.ring import HashRing
from repro.fabric.router import Router, ShardMap
from repro.fabric.supervisor import FabricSupervisor
from repro.load.arrivals import ArrivalProcess, ClosedLoop
from repro.load.report import EXPIRED, SHED, LoadReport, QueryLog
from repro.load.simclock import CostModel, SimClock, virtual_time
from repro.load.trace import MIX_STREAM_OFFSET, record_open_loop
from repro.obs.tracer import get_tracer
from repro.serve.query import Query
from repro.serve.server import QueryServer, RetryPolicy

__all__ = [
    "ServerConfig",
    "REPLICA_SERVER",
    "FabricConfig",
    "KillRecord",
    "FabricReport",
    "ServingFabric",
    "report_row",
    "slo_text",
]

#: decorrelates the closed-loop think-time RNG from the mix RNG
THINK_STREAM_OFFSET = 0x6A09E667
#: decorrelates each server's retry-jitter RNG from the traffic streams
JITTER_STREAM_OFFSET = 0xB7E15162


@dataclass(frozen=True)
class ServerConfig:
    """How every replica server is built and served (a run-table axis).

    ``timeout`` is the *client-side* budget stamped on every generated
    query (anchored at arrival, so queue wait burns it); ``queue_depth``
    is each replica's wait queue in front of its ``max_in_flight``
    workers (0 = shed on busy, the live server's semantics); the
    remaining server fields go straight to
    :class:`~repro.serve.QueryServer`.
    """

    name: str
    timeout: float | None = None
    max_in_flight: int = 4
    queue_depth: int = 0
    tier1_budget_fraction: float | None = None
    kernel: str = "delta"
    cache_size: int = 64
    jitter: float = 0.0
    #: replicas serving at t=0 (1 = a single server over the graph as
    #: given; see :class:`ServingFabric`)
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.replicas < 1:
            raise ValueError("need at least one replica")

    def build(self, graph, *, seed: int) -> QueryServer:
        """A server over ``graph`` with a ``seed``-derived jitter RNG."""
        return QueryServer(
            graph,
            kernel=self.kernel,
            cache_size=self.cache_size,
            default_timeout=self.timeout,
            max_in_flight=self.max_in_flight,
            tier1_budget_fraction=self.tier1_budget_fraction,
            retry=RetryPolicy(jitter=self.jitter),
            rng=Random(seed + JITTER_STREAM_OFFSET),
        )

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: the fleet default: three replicas, 4 workers + 4 queue slots each
REPLICA_SERVER = ServerConfig(
    name="replica", timeout=0.5, max_in_flight=4, queue_depth=4, replicas=3
)


@dataclass(frozen=True)
class FabricConfig:
    """Everything one fabric needs besides the graph and the traffic."""

    #: every replica server, and the replica count at t=0
    server: ServerConfig = REPLICA_SERVER
    #: provisioned replica slots (ring membership; extras start standby)
    max_replicas: int | None = None
    #: shard count of a fleet (vertex ranges of the RowPartition)
    shards: int = 8
    #: bounded-load factor c (1 = perfectly even; Google's canonical 1.25)
    load_factor: float = 1.25
    #: simulated seconds between health heartbeats
    heartbeat_interval: float = 0.02
    #: coordinated authority checkpoints every N heartbeats
    checkpoint_every: int = 5
    #: maximum hedged re-dispatches per query
    max_hedges: int = 2
    #: recovery = latency + bytes·per_byte + missed_batches·per_batch
    recovery_latency: float = 0.01
    recovery_seconds_per_byte: float = 1e-9
    replay_seconds_per_batch: float = 1e-4
    #: SLO: a kill must be recovered within this many heartbeats
    recovery_budget_heartbeats: int = 10
    #: scaling policy (None = fixed fleet)
    elastic: ElasticPolicy | None = None
    #: master seed: arrivals, query content, think times, retry jitter
    seed: int = 0


@dataclass
class KillRecord:
    """One replica kill and its recovery, for the report."""

    replica: int
    at: float
    stage: str
    in_flight_lost: int
    recovered_at: float | None = None
    ttr: float | None = None
    missed_batches: int = 0
    checkpoint_version: int = 0
    within_budget: bool | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "replica": self.replica,
            "at": round(self.at, 6),
            "stage": self.stage,
            "in_flight_lost": self.in_flight_lost,
            "recovered_at": round(self.recovered_at, 6)
            if self.recovered_at is not None
            else None,
            "ttr": round(self.ttr, 6) if self.ttr is not None else None,
            "missed_batches": self.missed_batches,
            "checkpoint_version": self.checkpoint_version,
            "within_budget": self.within_budget,
        }


@dataclass
class FabricReport(LoadReport):
    """A fleet run's report: the :class:`~repro.load.report.LoadReport`
    plus kills, recoveries, scaling and BSP accounting."""

    kills: list[KillRecord] = field(default_factory=list)
    elastic_events: list[ElasticEvent] = field(default_factory=list)
    heartbeats: int = 0
    spills: int = 0
    router_rejected: int = 0
    #: final replica states, id-ordered
    replica_states: dict[int, str] = field(default_factory=dict)
    #: BSP accounting of the fabric communicator
    dist: dict[str, float] = field(default_factory=dict)

    def recovery_window_dispositions(self) -> dict[str, int]:
        """Disposition counts of queries issued while a replica was down."""
        windows = [
            (k.at, k.recovered_at if k.recovered_at is not None else self.horizon)
            for k in self.kills
        ]
        counts: dict[str, int] = {}
        for log in self.logs:
            if any(lo <= log.issued_at <= hi for lo, hi in windows):
                counts[log.disposition] = counts.get(log.disposition, 0) + 1
        return dict(sorted(counts.items()))

    def metrics(self) -> dict[str, Any]:
        """A superset of :meth:`LoadReport.metrics
        <repro.load.report.LoadReport.metrics>` — run-table cells with a
        ``replicas`` axis stay schema-compatible with single-server
        cells — plus the fleet-only availability/recovery columns."""
        base = super().metrics()
        summary = self.dispositions()
        ttrs = [k.ttr for k in self.kills if k.ttr is not None]
        base.update(
            {
                "availability": summary["availability"],
                "answered": summary["answered"],
                "hedged": summary["hedged"],
                "kills": len(self.kills),
                "ttr_max": round(max(ttrs), 6) if ttrs else None,
                "ttr_mean": round(sum(ttrs) / len(ttrs), 6) if ttrs else None,
                "recovery_within_budget": all(
                    k.within_budget for k in self.kills
                )
                if self.kills
                else True,
                "heartbeats": self.heartbeats,
                "spills": self.spills,
                "router_rejected": self.router_rejected,
                "elastic_events": len(self.elastic_events),
            }
        )
        return base


class ServingFabric:
    """N replicas, one router, one timeline — or, bare, one server.

    Parameters
    ----------
    graph:
        The graph to serve.  A fleet owns the authoritative
        :class:`~repro.dyn.live.LiveGraph` built over it (exposed as
        :attr:`authority`) and every replica serves an independent
        clone; a bare fabric serves ``graph`` itself (pass a
        ``LiveGraph`` to mutate it).
    mix:
        Query-content sampler (required unless every run replays a
        trace).
    config:
        The :class:`FabricConfig`.
    cost_model:
        Per-checkpoint simulated costs (default :class:`CostModel`).
    fault_plan:
        Seeded :class:`~repro.distributed.comm.FaultPlan`; ``@R<N>``
        rules target replicas (identity-mapped onto the fabric's ranks).
    server:
        In place of ``graph``: a caller-built server, served as given by
        a bare fabric (only ``timeout`` and ``queue_depth`` of
        ``config.server`` apply to it).
    """

    def __init__(
        self,
        graph=None,
        mix=None,
        *,
        config: FabricConfig | None = None,
        cost_model: CostModel | None = None,
        fault_plan: FaultPlan | None = None,
        server: QueryServer | None = None,
    ) -> None:
        if (graph is None) == (server is None):
            raise TypeError("pass either a graph or a caller-built server")
        cfg = config if config is not None else FabricConfig()
        replicas = cfg.server.replicas
        provisioned = cfg.max_replicas if cfg.max_replicas is not None else replicas
        if provisioned < replicas:
            raise ValueError("max_replicas must cover the initial replicas")
        bare = provisioned == 1 and fault_plan is None
        if server is not None and not bare:
            raise ValueError(
                "a caller-built server runs alone: one replica, no fault plan"
            )
        self.config = cfg
        self.mix = mix
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.ring = HashRing(range(provisioned))
        self.replicas: dict[int, Replica] = {}
        if bare:
            if server is None:
                spec: ServerConfig = cfg.server
                server = spec.build(graph, seed=cfg.seed)
            # a lone server has no placement to make: one shard covers it
            self.shard_map = ShardMap(server.graph, 1)
            #: the graph mutations apply to (the server's own, when bare;
            #: None over a static graph)
            self.authority = server.live
            self.comm: SimComm | None = None
            self.supervisor: FabricSupervisor | None = None
            self.replicas[0] = self._replica(0, server)
        else:
            self.shard_map = ShardMap(graph, cfg.shards)
            self.authority = LiveGraph(graph)
            self.comm = SimComm(
                provisioned,
                CommModel().scaled_for(graph.num_edges),
                fault_plan=fault_plan,
            )
            self.supervisor = FabricSupervisor(self.comm, self.shard_map)
            for rid in range(provisioned):  # contracts: disable=CTR201 (bounded)
                self.replicas[rid] = self._replica(
                    rid, self._clone_server(rid) if rid < replicas else None
                )
        self.router = Router(
            self.ring, self.replicas, load_factor=cfg.load_factor
        )
        #: (version_after, batch) per applied batch — the recovery replay log
        self._batch_log: list[tuple[int, Any]] = []
        #: pending timed events: (at, seq, kind, replica_id, kill_record)
        self._pending: list[tuple[float, int, str, int, KillRecord | None]] = []
        self._seq = 0
        self._known_dead: set[int] = set()
        self._ticks_done = 0
        self._mutations_applied = 0
        self._feed: Iterator[Any] = iter(())
        self._next_batch = None
        self.kills: list[KillRecord] = []
        self.elastic_events: list[ElasticEvent] = []
        self._logs: dict[str, QueryLog] = {}
        self._results: dict[str, tuple] | None = None
        #: response instants of queries booked so far (a heap)
        self._outstanding: list[float] = []
        self._peak = 0
        self._clock: SimClock | None = None

    # -- construction helpers -------------------------------------------
    def _replica(self, rid: int, server: QueryServer | None) -> Replica:
        return Replica(
            rid,
            server,
            queue_depth=self.config.server.queue_depth,
            state=ACTIVE if server is not None else STANDBY,
        )

    def _replica_server(self, rid: int, csr, alive, version: int) -> QueryServer:
        """A fleet replica's server over its own live copy of a graph state."""
        terrace = TerraceGraph.from_csr(csr)
        dead = np.flatnonzero(~alive)
        if dead.size:
            terrace.delete_vertices(dead)
        spec: ServerConfig = self.config.server
        return spec.build(
            LiveGraph(terrace, version=version), seed=self.config.seed + rid
        )

    def _clone_server(self, rid: int) -> QueryServer:
        """A fresh server over an independent clone of the authority."""
        snap = self.authority.snapshot()
        return self._replica_server(
            rid, snap.graph, self.authority.alive, snap.version
        )

    # -- the run --------------------------------------------------------
    def run(
        self,
        traffic: ArrivalProcess | ClosedLoop | Iterable[Query],
        *,
        horizon: float,
        max_queries: int | None = None,
        mutations=None,
        keep_results: bool = False,
    ) -> LoadReport:
        """Run one experiment; see the module docstring.

        ``traffic`` is an open-loop arrival process, a closed-loop
        population, or a query trace in issue order.  Every query of a
        run needs its own ``request_id`` (logs, in-flight bookkeeping and
        hedges are keyed by it; a hand-built ``Query`` defaults to
        ``""``), else :class:`ValueError`.  ``mutations`` is an optional time-ordered
        iterable of :class:`~repro.dyn.stream.MutationBatch`, pulled
        lazily: the next batch is drawn only after the previous one was
        applied, so a generator that samples the current graph state
        (:meth:`IncidentStream.batches
        <repro.dyn.stream.IncidentStream.batches>` over
        :attr:`authority`) sees exactly the state its batch applies to.
        A bare fabric over a static graph has no :attr:`authority` and
        refuses mutations with :class:`ValueError`.

        A closed-loop population cannot run under a fault plan: a hedge
        moves the response instant the user's next think time anchors
        on, which would make the population's schedule depend on
        failure timing.  A fabric runs once.
        """
        if self._clock is not None:
            raise RuntimeError("a fabric runs once; build a new one per run")
        if isinstance(traffic, ClosedLoop) and self.comm is not None and (
            self.comm.fault_plan is not None
        ):
            raise ValueError(
                "closed-loop populations cannot run under a kill plan: "
                "their think times would couple to failover timing"
            )
        if isinstance(traffic, (ArrivalProcess, ClosedLoop)) and self.mix is None:
            raise ValueError("generated traffic needs a query mix")
        self._feed = iter(mutations if mutations is not None else ())
        self._next_batch = next(self._feed, None)
        if self._next_batch is not None and self.authority is None:
            raise ValueError(
                "mutations need a live graph: this single server serves a "
                "static graph (build it over a LiveGraph)"
            )
        self._results = {} if keep_results else None
        self._clock = SimClock()
        with virtual_time(self._clock, self.cost_model):
            restore = [
                (r.server, r.server._sleep)
                for r in self.replicas.values()
                if r.server is not None
            ]
            for server, _ in restore:
                server._sleep = self._clock.sleep
            try:
                if self.supervisor is not None:
                    # t=0 coordinated checkpoint: recovery always has a base
                    self.supervisor.save_shards(self.authority)
                for q in self._queries(traffic, horizon, max_queries):
                    if q.request_id in self._logs:
                        raise ValueError(
                            f"duplicate request_id {q.request_id!r} in one "
                            "run: give every query its own id (a Query "
                            "built without one has request_id '')"
                        )
                    self._advance_to(q.issued_at)
                    self._dispatch(q)
                self._advance_to(horizon)
            finally:
                for server, sleep in restore:
                    server._sleep = sleep
        for rid in sorted(self.replicas):
            self.replicas[rid].commit_until(float("inf"))
        report = self._report(horizon)
        if isinstance(traffic, ClosedLoop):
            assert report.peak_in_flight <= traffic.users, (
                "closed-loop invariant violated: in-flight exceeded population"
            )
        return report

    # -- traffic --------------------------------------------------------
    def _queries(
        self,
        traffic: ArrivalProcess | ClosedLoop | Iterable[Query],
        horizon: float,
        max_queries: int | None,
    ) -> Iterator[Query]:
        """The run's queries in issue order, at most ``max_queries``."""
        if isinstance(traffic, ArrivalProcess):
            return iter(
                record_open_loop(
                    traffic,
                    self.mix,
                    horizon=horizon,
                    seed=self.config.seed,
                    timeout=self.config.server.timeout,
                    max_queries=max_queries,
                )
            )
        if isinstance(traffic, ClosedLoop):
            return islice(self._closed_loop(traffic, horizon), max_queries)
        return islice(traffic, max_queries)

    def _closed_loop(self, population: ClosedLoop, horizon: float) -> Iterator[Query]:
        """Each user issues, waits for the answer (or the failed attempt),
        thinks, and issues again; the next wake reads the log the loop
        wrote for the query just yielded."""
        seed = self.config.seed
        rng_think = Random(seed + THINK_STREAM_OFFSET)
        rng_mix = Random(seed + MIX_STREAM_OFFSET)
        ramp = (
            population.ramp
            if population.ramp is not None
            else population.think_mean
        )
        # Initial wake-ups, uniformly over the ramp window.  For a
        # million-user population this is one float per user — the heap
        # never holds more than one entry per user, which is what keeps
        # closed-loop in-flight <= population by construction.
        wakes = [rng_think.random() * ramp for _ in range(population.users)]
        heapq.heapify(wakes)
        issued = 0
        while wakes:
            t = heapq.heappop(wakes)
            if t >= horizon:
                continue  # this user retires
            source, target, k = self.mix.sample(rng_mix)
            q = Query(
                source=source,
                target=target,
                k=k,
                timeout=self.config.server.timeout,
                request_id=f"q{issued:06d}",
                issued_at=t,
            )
            issued += 1
            yield q
            log = self._logs[q.request_id]
            response_at = t + log.latency if log.served else t
            think = rng_think.expovariate(1.0 / population.think_mean)
            heapq.heappush(wakes, response_at + think)

    # -- the event loop --------------------------------------------------
    def _advance_to(self, t: float) -> None:
        """Process every timed event at or before ``t``, in time order.

        Equal-instant priority: recoveries, then heartbeats, then
        mutations — a replica that recovers exactly when a batch lands
        receives that batch like any other survivor.  A bare fabric has
        no heartbeats.
        """
        inf = float("inf")
        hb = self.config.heartbeat_interval
        while True:
            at_pending = self._pending[0][0] if self._pending else inf
            at_tick = (self._ticks_done + 1) * hb if self.comm is not None else inf
            at_batch = self._next_batch.at if self._next_batch is not None else inf
            at = min(at_pending, at_tick, at_batch)
            if at > t:
                return
            if at_pending == at:
                self._process_pending()
            elif at_tick == at:
                self._ticks_done += 1
                self._heartbeat(at)
            else:
                self._apply_batch(self._next_batch)
                self._next_batch = next(self._feed, None)

    def _process_pending(self) -> None:
        at, _, kind, rid, kill = heapq.heappop(self._pending)
        if kind == "recover":
            self._finish_recovery(at, rid, kill)
        else:  # "scaleup"
            replica = self.replicas[rid]
            replica.reset(self._clone_server(rid), at=at, state=ACTIVE)
            replica.server._sleep = self._clock.sleep

    def _schedule(self, at: float, kind: str, rid: int, kill) -> None:
        self._seq += 1
        heapq.heappush(self._pending, (at, self._seq, kind, rid, kill))

    # -- heartbeats ------------------------------------------------------
    def _heartbeat(self, tb: float) -> None:
        cfg = self.config
        try:
            self.comm.barrier(stage="fabric.heartbeat")
        except RankFailure:
            pass  # kill surfaced; membership handled from comm.dead below
        for rid in sorted(self.comm.dead - self._known_dead):
            self._known_dead.add(rid)
            self._process_kill(rid, tb)
        for rid in sorted(self.replicas):
            replica = self.replicas[rid]
            replica.commit_until(tb)
            if replica.state == DRAINING and not replica.inflight:
                replica.state = STANDBY
        if self._ticks_done % cfg.checkpoint_every == 0:
            self.supervisor.save_shards(self.authority)
        if cfg.elastic is not None:
            decision = cfg.elastic.decide(self.replicas, tb)
            if decision is not None:
                action, rid = decision
                util = cfg.elastic.utilization(self.replicas, tb)
                self.elastic_events.append(
                    ElasticEvent(
                        at=round(tb, 9),
                        action=action,
                        replica=rid,
                        utilization=round(util, 6),
                    )
                )
                if action == "scale_up":
                    self.replicas[rid].state = RECOVERING
                    self._schedule(
                        tb + cfg.elastic.scale_delay, "scaleup", rid, None
                    )
                else:
                    self.replicas[rid].state = DRAINING
                get_tracer().add(f"fabric.{action}")

    # -- kills and hedging ----------------------------------------------
    def _process_kill(self, rid: int, tk: float) -> None:
        cfg = self.config
        replica = self.replicas[rid]
        replica.commit_until(tk)  # delivered responses survive the kill
        lost = replica.lose_inflight()
        was_serving = replica.state in (ACTIVE, DRAINING)
        replica.state = DEAD
        kill = KillRecord(
            replica=rid,
            at=tk,
            stage="fabric.heartbeat",
            in_flight_lost=len(lost),
        )
        self.kills.append(kill)
        tracer = get_tracer()
        tracer.add("fabric.kills")
        # BSP accounting: one restore read, like the distributed layer
        shard_bytes = self.supervisor.checkpoint_bytes()
        model = self.comm.model
        self.comm.charge_recovery(
            model.latency
            + model.per_byte * (max(shard_bytes) if shard_bytes else 0)
        )
        self.comm.report.failures += 1
        if was_serving:
            ready = (
                tk
                + cfg.recovery_latency
                + sum(shard_bytes) * cfg.recovery_seconds_per_byte
            )
            self._schedule(ready, "recover", rid, kill)
        else:
            # a standby/recovering victim has nothing to restore; it is
            # simply marked dead until an operator (or scale-up) revives it
            kill.within_budget = True
        for flight in lost:
            self._hedge(flight, tk)

    def _hedge(self, flight: Flight, tk: float) -> None:
        q = flight.query
        hedges = flight.hedges + 1
        get_tracer().add("fabric.hedges")
        rid = (
            self.router.place(self.shard_map.shard_of(q.source), tk)
            if hedges <= self.config.max_hedges
            else None
        )
        if rid is None:
            self._drop(
                q, SHED, queue_time=tk - q.issued_at,
                replica=flight.replica, hedges=hedges,
            )
            return
        self._serve_on(self.replicas[rid], q, tk, hedges)

    # -- dispatch --------------------------------------------------------
    def _dispatch(self, q: Query) -> None:
        t = q.issued_at
        rid = self.router.place(self.shard_map.shard_of(q.source), t)
        if rid is None:
            self._drop(q, SHED)
            return
        self._serve_on(self.replicas[rid], q, t, 0)

    def _serve_on(
        self, replica: Replica, q: Query, now_t: float, hedges: int
    ) -> None:
        """Serve ``q`` on ``replica``, arriving there at ``now_t``."""
        start = replica.next_start(now_t)
        queue_time = start - q.issued_at  # total wait since *issue*
        timeout = q.timeout
        if timeout is not None and queue_time >= timeout:
            # the budget died while queueing: never reaches a worker
            self._drop(
                q, EXPIRED, queue_time=queue_time,
                replica=replica.id, hedges=hedges,
            )
            return
        budget = None if timeout is None else timeout - queue_time
        self._clock.jump_to(start)
        res = replica.server.serve(q.with_timeout(budget), queue_time=queue_time)
        finish = self._clock.now()
        replica.occupy(
            Flight(
                query=q,
                replica=replica.id,
                issued_at=q.issued_at,
                start=start,
                finish=finish,
                result=res,
                hedges=hedges,
            )
        )
        # in flight at the arrival instant: everything whose response is
        # still ahead, queued or running, plus this query
        while self._outstanding and self._outstanding[0] <= now_t:
            heapq.heappop(self._outstanding)
        heapq.heappush(self._outstanding, finish)
        self._peak = max(self._peak, len(self._outstanding))
        self._log(
            QueryLog(
                request_id=q.request_id,
                source=q.source,
                target=q.target,
                k=q.k,
                issued_at=q.issued_at,
                disposition=res.outcome,
                tier=res.tier,
                queue_time=queue_time,
                service_time=res.service_time,
                latency=finish - q.issued_at,
                attempts=res.attempts,
                paths=len(res.paths),
                replica=replica.id,
                hedges=hedges,
            )
        )
        if self._results is not None:
            self._results[q.request_id] = tuple(
                (p.vertices, p.distance) for p in res.paths
            )

    def _drop(
        self,
        q: Query,
        disposition: str,
        *,
        queue_time: float = 0.0,
        replica: int = -1,
        hedges: int = 0,
    ) -> None:
        """Log a request that got no response (:data:`SHED`/:data:`EXPIRED`)."""
        self._log(
            QueryLog(
                request_id=q.request_id,
                source=q.source,
                target=q.target,
                k=q.k,
                issued_at=q.issued_at,
                disposition=disposition,
                queue_time=queue_time,
                replica=replica,
                hedges=hedges,
            )
        )
        if self._results is not None:
            self._results.pop(q.request_id, None)

    def _log(self, log: QueryLog) -> None:
        # a hedge re-logs its request in place, keeping issue order
        self._logs[log.request_id] = log

    # -- mutations -------------------------------------------------------
    def _apply_batch(self, batch) -> None:
        if self.comm is not None:
            touched_shards = self.shard_map.shards_touching(
                batch.touched_vertices()
            )
            tracer = get_tracer()
            if tracer.enabled:
                tracer.add("fabric.mutate.batches")
                tracer.add("fabric.mutate.touched_shards", len(touched_shards))
            try:
                self.comm.bcast(int(batch.size), stage="fabric.mutate")
            except RankFailure:
                # a kill mid-apply: process membership first, then apply
                # the batch to the *survivors* — they all land on the same
                # version (the failover-consistency contract tests/dyn
                # asserts)
                for rid in sorted(self.comm.dead - self._known_dead):
                    self._known_dead.add(rid)
                    self._process_kill(rid, batch.at)
            snap = self.authority.apply(batch)
            self._batch_log.append((snap.version, batch))
        # full replication: every serving replica holds every touched
        # shard, so the recipient set is the active + draining fleet;
        # dead/recovering replicas replay from the batch log instead
        for rid in sorted(self.replicas):
            replica = self.replicas[rid]
            if replica.state in (ACTIVE, DRAINING):
                replica.server.apply_mutations(batch)
        self._mutations_applied += 1

    # -- recovery --------------------------------------------------------
    def _finish_recovery(self, tr: float, rid: int, kill: KillRecord) -> None:
        cfg = self.config
        csr, alive, version = self.supervisor.restore_shards()
        server = self._replica_server(rid, csr, alive, version)
        missed = 0
        for batch_version, batch in self._batch_log:
            if batch_version > version:
                server.apply_mutations(batch)
                missed += 1
        self._verify_restored(server, rid)
        self.comm.revive(rid)
        self._known_dead.discard(rid)
        ready = tr + missed * cfg.replay_seconds_per_batch
        replica = self.replicas[rid]
        replica.reset(server, at=ready, state=ACTIVE)
        replica.server._sleep = self._clock.sleep
        if kill is not None:
            kill.recovered_at = ready
            kill.ttr = ready - kill.at
            kill.missed_batches = missed
            kill.checkpoint_version = version
            kill.within_budget = (
                kill.ttr
                <= cfg.recovery_budget_heartbeats * cfg.heartbeat_interval
            )
        get_tracer().add("fabric.recoveries")

    def _verify_restored(self, server: QueryServer, rid: int) -> None:
        """Restored-equals-authority audit (the point of the checksums)."""
        mine = server.live.graph
        truth = self.authority.graph
        same = (
            server.live.version == self.authority.version
            and np.array_equal(mine.indptr, truth.indptr)
            and np.array_equal(mine.indices, truth.indices)
            and np.array_equal(mine.weights, truth.weights)
            and np.array_equal(server.live.alive, self.authority.alive)
        )
        if not same:
            raise SanitizerError(
                f"replica {rid} restored state diverges from the authority "
                f"(version {server.live.version} vs {self.authority.version})"
            )

    # -- reporting -------------------------------------------------------
    def _report(self, horizon: float) -> LoadReport:
        counters: dict[str, int] = {}
        for rid in sorted(self.replicas):
            server = self.replicas[rid].server
            if server is None:
                continue
            for key, value in server.counters.items():
                counters[key] = counters.get(key, 0) + value
        fleet: dict[str, Any] = {}
        if self.comm is not None:
            rep = self.comm.report
            fleet = {
                "kills": self.kills,
                "elastic_events": self.elastic_events,
                "heartbeats": self._ticks_done,
                "spills": self.router.spills,
                "router_rejected": self.router.rejected,
                "replica_states": {
                    rid: self.replicas[rid].state for rid in sorted(self.replicas)
                },
                "dist": {
                    "failures": rep.failures,
                    "supersteps": rep.supersteps,
                    "checkpoint_units": round(rep.checkpoint_units, 6),
                    "recovery_units": round(rep.recovery_units, 6),
                    "checkpoint_bytes": rep.checkpoint_bytes,
                },
            }
        return (FabricReport if fleet else LoadReport)(
            logs=list(self._logs.values()),
            horizon=horizon,
            peak_in_flight=self._peak,
            clock_ticks=self._clock.ticks,
            mutation_batches=self._mutations_applied,
            server_counters=dict(sorted(counters.items())),
            results=self._results,
            **fleet,
        )


def report_row(scenario: str, report: LoadReport) -> dict[str, Any]:
    """One JSON-ready row per fabric run — the shared shape of
    ``peek-fabric`` payloads and ``BENCH_fabric.json``.

    A bare run's plain :class:`~repro.load.report.LoadReport` reads as a
    fleet of one that was never killed: no kills, heartbeats or spills,
    and every shed a router rejection (a lone replica has no hedges).
    """
    if not isinstance(report, FabricReport):
        report = FabricReport(
            **{f.name: getattr(report, f.name) for f in fields(LoadReport)},
            router_rejected=report.count(SHED),
            replica_states={0: ACTIVE},
        )
    return {
        "scenario": scenario,
        **report.metrics(),
        "dispositions": report.dispositions(),
        "recovery_window": report.recovery_window_dispositions(),
        "kill_records": [k.as_dict() for k in report.kills],
        "replica_states": {
            str(rid): state for rid, state in report.replica_states.items()
        },
        "dist": report.dist,
    }


def slo_text(rows: list[dict[str, Any]], *, title: str = "fabric SLO") -> str:
    """Human-readable SLO table over scenario rows (``metrics()`` dicts
    extended with ``scenario`` and ``kill_records`` keys) — shared by
    ``peek-fabric`` and ``benchmarks/bench_fabric.py``."""

    def ms(value) -> str:
        return f"{value * 1e3:8.2f}" if value is not None else f"{'-':>8}"

    lines = [
        title,
        "",
        f"{'scenario':>20} {'queries':>7} {'avail':>7} {'p50 ms':>8} "
        f"{'p99 ms':>8} {'p999 ms':>8} {'shed%':>6} {'degr%':>6} "
        f"{'kills':>5} {'ttr ms':>8} {'hedged':>6}",
    ]
    for row in rows:
        lines.append(
            f"{row.get('scenario', '-'):>20} {row['queries']:>7} "
            f"{row['availability']:>7.4f} {ms(row['latency_p50'])} "
            f"{ms(row['latency_p99'])} {ms(row['latency_p999'])} "
            f"{row['shed_rate']:>6.1%} {row['degraded_rate']:>6.1%} "
            f"{row['kills']:>5} {ms(row['ttr_max'])} {row['hedged']:>6}"
        )
    lines.append("")
    for row in rows:
        for kill in row.get("kill_records", ()):
            budget = "ok" if kill["within_budget"] else "OVER BUDGET"
            lines.append(
                f"  kill: scenario={row.get('scenario', '-')} "
                f"replica={kill['replica']} at={kill['at']:.3f}s "
                f"lost={kill['in_flight_lost']} "
                f"ttr={kill['ttr'] * 1e3:.2f}ms "
                f"missed_batches={kill['missed_batches']} [{budget}]"
                if kill["ttr"] is not None
                else f"  kill: scenario={row.get('scenario', '-')} "
                f"replica={kill['replica']} at={kill['at']:.3f}s "
                f"(not recovered)"
            )
    return "\n".join(lines)
