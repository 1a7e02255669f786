"""Workload generation and capacity experiments on simulated time.

The load layer answers "what happens to this serving configuration
under *that* traffic?" reproducibly: arrival processes and query mixes
(:mod:`~repro.load.arrivals`, :mod:`~repro.load.mixes`) feed a
discrete-event harness (:mod:`~repro.load.harness`, the one-replica case
of :class:`~repro.fabric.fabric.ServingFabric`) that drives a real
:class:`~repro.serve.QueryServer` on a :class:`~repro.load.simclock.SimClock`,
and the experiment runner (:mod:`~repro.load.runner`) sweeps run tables
into ``BENCH_serving.json``.  See ``docs/load_testing.md``.
"""

from repro.load.arrivals import (
    ArrivalProcess,
    ClosedLoop,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    arrival_process,
)
from repro.load.mixes import HotspotMix, KSampler, QueryMix, UniformMix, make_mix
from repro.load.report import LoadReport, QueryLog
from repro.load.simclock import CostModel, SimClock, virtual_time
from repro.load.trace import dump_trace, load_trace, record_open_loop

#: names served by the serving loop's layer (repro.fabric), which is
#: built on the modules above: resolved on first access, so neither
#: package has to finish importing before the other
_LOOP_EXPORTS = {
    "LoadHarness": "repro.load.harness",
    "RunTable": "repro.load.runner",
    "ServerConfig": "repro.load.runner",
    "run_table": "repro.load.runner",
    "capacity_summary": "repro.load.runner",
}


def __getattr__(name: str):
    if name not in _LOOP_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(_LOOP_EXPORTS[name]), name)
    globals()[name] = value
    return value

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "DiurnalArrivals",
    "ClosedLoop",
    "arrival_process",
    "QueryMix",
    "UniformMix",
    "HotspotMix",
    "KSampler",
    "make_mix",
    "SimClock",
    "CostModel",
    "virtual_time",
    "LoadHarness",
    "LoadReport",
    "QueryLog",
    "RunTable",
    "ServerConfig",
    "run_table",
    "capacity_summary",
    "dump_trace",
    "load_trace",
    "record_open_loop",
]
