"""The load harness: one caller-built :class:`~repro.serve.QueryServer`
under simulated traffic.

The harness is the one-replica, no-kill case of the serving fabric's
event loop (:class:`~repro.fabric.fabric.ServingFabric`): a G/G/c/K
station in front of the real server, with

* ``c = server.max_in_flight`` worker slots (the server's own admission
  bound, so the simulated concurrency matches what the live server
  would admit);
* a FIFO wait queue of at most ``queue_depth`` requests (0 by default —
  exactly the live server's shed-don't-queue semantics);
* arrivals from an :class:`~repro.load.arrivals.ArrivalProcess`, a
  replayed trace, or a :class:`~repro.load.arrivals.ClosedLoop` user
  population, plus an optional timed mutation feed.

Each admitted query is *actually served* — the full PeeK → OptYen →
partial degradation chain runs, with the per-query deadline anchored at
the arrival instant — on a :class:`~repro.load.simclock.SimClock` that
advances per cooperative checkpoint.  The server is served as given:
its graph is never cloned, and its backoff sleep is pointed at the
simulated clock only for the duration of the run.

Why a simulated station rather than threads: real threads would put
wall-clock jitter in every latency and make overload behavior a race;
the simulated station makes "p999 under 2× overload" a *fact* about the
configuration, not about the test machine (and lets one process model a
million-user population).
"""

from __future__ import annotations

from repro.fabric.fabric import FabricConfig, ServerConfig, ServingFabric
from repro.load.mixes import QueryMix
from repro.load.simclock import CostModel
from repro.serve.server import QueryServer

__all__ = ["LoadHarness"]


class LoadHarness(ServingFabric):
    """Drive one caller-built :class:`~repro.serve.QueryServer`.

    Parameters
    ----------
    server:
        The server under test.  Its ``max_in_flight`` is the worker-slot
        count of the simulated station.
    mix:
        Query-content sampler (required unless every run replays a
        trace).
    timeout:
        Per-query budget in simulated seconds, anchored at the *arrival*
        instant — queue wait burns budget, exactly like a client-side
        deadline.  ``None`` = the server's default.
    queue_depth:
        Wait-queue length in front of the workers (0 = shed on busy,
        the live server's semantics).
    cost_model:
        Per-checkpoint simulated costs; default :class:`CostModel`.
    seed:
        Master seed for the run; arrival times, query content and think
        times derive from it (docs/load_testing.md, "The seeding
        contract").

    Every query of a run needs its own ``request_id``; a replayed trace
    of hand-built ``Query`` objects must set them (the default is
    ``""``).
    """

    def __init__(
        self,
        server: QueryServer,
        mix: QueryMix | None = None,
        *,
        timeout: float | None = None,
        queue_depth: int = 0,
        cost_model: CostModel | None = None,
        seed: int = 0,
    ) -> None:
        config = ServerConfig(
            name="harness",
            timeout=timeout,
            max_in_flight=server.max_in_flight,
            queue_depth=queue_depth,
        )
        # explicit base call (not super()), resolved exactly by
        # repro-contracts: building the loop runs no query code
        ServingFabric.__init__(
            self,
            mix=mix,
            config=FabricConfig(server=config, seed=seed),
            cost_model=cost_model,
            server=server,
        )
