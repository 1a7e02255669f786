"""The live-graph serving smoke run behind ``peek dyn smoke``.

:func:`run_smoke` drives a :class:`~repro.serve.QueryServer` built over a
:class:`~repro.dyn.live.LiveGraph` with a seeded incident stream
(:class:`~repro.dyn.stream.IncidentStream`) and a hot query pool on the
simulated clock, and returns a deterministic payload (run metrics,
server counters, cache/reuse accounting, final graph version).
Everything downstream of the seeds is reproducible byte-for-byte — the
CI ``dyn-serving`` job runs the smoke twice and ``cmp``'s the artifacts.

The query content cycles a small *hot pool* of ``(source, target, k)``
tuples rather than sampling uniformly: repeated queries are what the
versioned prune-bound reuse path exists for, so the smoke demonstrates a
non-zero reuse rate by construction.
"""

from __future__ import annotations

from random import Random

from repro.dyn.live import LiveGraph
from repro.dyn.stream import IncidentStream
from repro.graph.suite import suite_graph
from repro.load.arrivals import PoissonArrivals
from repro.load.harness import LoadHarness
from repro.serve.query import Query
from repro.serve.server import QueryServer

__all__ = ["run_smoke", "smoke_summary"]

#: decorrelate the three seeded streams of one smoke run
POOL_STREAM_OFFSET = 0x517CC1B7
STREAM_SEED_OFFSET = 0x2545F491


def run_smoke(
    *,
    graph_name: str = "LJ",
    scale: str = "tiny",
    seed: int = 0,
    horizon: float = 4.0,
    qps: float = 40.0,
    mutation_rate: float = 2.0,
    pool_size: int = 6,
    kernel: str = "dijkstra",
    timeout: float | None = None,
    stream_kwargs: dict | None = None,
) -> dict:
    """One deterministic smoke run; returns the JSON-ready payload.

    ``stream_kwargs`` are forwarded to
    :class:`~repro.dyn.stream.IncidentStream` (the benchmark uses this to
    sweep incident mixes, e.g. an increase-only stream with
    ``p_clear=0, p_reopen=0``).
    """
    graph = suite_graph(graph_name, scale)
    live = LiveGraph(graph)
    server = QueryServer(live, kernel=kernel)

    n = graph.num_vertices
    rng_pool = Random(seed + POOL_STREAM_OFFSET)
    pool: list[tuple[int, int, int]] = []
    while len(pool) < pool_size:
        s, t = rng_pool.randrange(n), rng_pool.randrange(n)
        if s != t:
            pool.append((s, t, rng_pool.choice((2, 4, 8))))

    rng_arrivals = Random(seed)
    queries = []
    for i, at in enumerate(
        PoissonArrivals(rate=qps).arrivals(rng_arrivals, horizon)
    ):
        s, t, k = pool[i % len(pool)]
        queries.append(
            Query(
                source=s,
                target=t,
                k=k,
                timeout=timeout,
                request_id=f"q{i:06d}",
                issued_at=at,
            )
        )

    stream = IncidentStream(
        seed=seed + STREAM_SEED_OFFSET,
        rate=mutation_rate,
        **(stream_kwargs or {}),
    )
    harness = LoadHarness(server, mix=None, timeout=timeout, seed=seed)
    report = harness.run(
        queries, horizon=horizon, mutations=stream.batches(live, horizon)
    )

    info = server.batch.cache_info
    reuse_total = info["prune_reused"] + info["prune_cold"]
    return {
        "benchmark": "dyn_serving_smoke",
        "graph": graph_name,
        "scale": scale,
        "seed": seed,
        "horizon": horizon,
        "qps": qps,
        "mutation_rate": mutation_rate,
        "pool": pool_size,
        "kernel": kernel,
        "metrics": report.metrics(),
        "server_counters": dict(sorted(server.counters.items())),
        "cache_info": dict(sorted(info.items())),
        "prune_reuse_rate": round(info["prune_reused"] / reuse_total, 6)
        if reuse_total
        else 0.0,
        "final_version": live.version,
    }


def smoke_summary(payload: dict) -> str:
    """The short text summary of a :func:`run_smoke` payload."""
    m = payload["metrics"]
    info = payload["cache_info"]
    return "\n".join([
        "dyn-serving smoke "
        f"({payload['graph']}/{payload['scale']}, seed {payload['seed']})",
        f"  queries served      {m['served']}/{m['queries']}",
        f"  mutation batches    {m['mutation_batches']} "
        f"(final version {payload['final_version']})",
        f"  prune reuse rate    {payload['prune_reuse_rate']} "
        f"({info['prune_reused']} reused / {info['prune_cold']} cold)",
        f"  cache entries       {info['retained']} retained, "
        f"{info['invalidated']} invalidated across rebinds",
    ])
