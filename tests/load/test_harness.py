"""The discrete-event harness: virtual time, queueing, both loop shapes.

Everything here runs on :class:`SimClock` — no assertion in this file
depends on the wall clock, which is the point of the subsystem.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.graph.build import from_edge_list
from repro.graph.suite import suite_graph
from repro.load.arrivals import ClosedLoop, PoissonArrivals
from repro.load.harness import LoadHarness
from repro.load.report import (
    DISPOSITIONS,
    EXPIRED,
    SHED,
    QueryLog,
    disposition_summary,
    percentile,
)
from repro.load.mixes import KSampler, UniformMix
from repro.load.simclock import CostModel, SimClock, virtual_time
from repro.load.trace import record_open_loop
from repro.serve.query import Query
from repro.serve.server import DEGRADED, QueryServer


@pytest.fixture(scope="module")
def graph():
    return suite_graph("LJ", "tiny")


def make_harness(graph, **kwargs):
    server_kwargs = kwargs.pop("server_kwargs", {})
    server = QueryServer(graph, max_in_flight=kwargs.pop("max_in_flight", 4),
                         **server_kwargs)
    mix = UniformMix(graph, k=KSampler(k_max=4))
    return LoadHarness(server, mix, **kwargs)


class TestSimClock:
    def test_advance_and_jump(self):
        clock = SimClock()
        clock.advance(1.5)
        assert clock.now() == 1.5
        clock.jump_to(0.25)  # backwards jumps are the harness aligning
        assert clock() == 0.25
        with pytest.raises(ValueError, match="backwards"):
            clock.advance(-0.1)

    def test_sleep_clamps_negative(self):
        clock = SimClock()
        clock.sleep(-1.0)
        assert clock.now() == 0.0


class TestCostModel:
    def test_longest_prefix_wins(self):
        model = CostModel.from_dict(
            {"prune": 1.0, "prune.scan": 2.0}, default=0.5
        )
        assert model.cost("prune.scan") == 2.0
        assert model.cost("prune.scan.block") == 2.0
        assert model.cost("prune.masks") == 1.0
        assert model.cost("yen") == 0.5

    def test_exact_match_is_not_a_prefix_match(self):
        model = CostModel.from_dict({"sssp": 3.0})
        assert model.cost("sssp") == 3.0
        assert model.cost("ssspx") == model.default

    def test_virtual_time_advances_per_checkpoint(self, graph):
        clock = SimClock()
        server = QueryServer(graph)
        with virtual_time(clock, CostModel()):
            res = server.serve(Query(0, 5, 2))
        assert res.service_time > 0.0
        assert clock.ticks > 0

    def test_service_time_is_deterministic(self, graph):
        def once():
            clock = SimClock()
            with virtual_time(clock, CostModel()):
                return QueryServer(graph).serve(Query(0, 5, 2)).service_time

        assert once() == once()


class TestOpenLoop:
    def test_run_is_deterministic(self, graph):
        def once():
            h = make_harness(graph, timeout=0.1, seed=42)
            return h.run(PoissonArrivals(300.0), horizon=0.2).metrics()

        assert once() == once()

    def test_overload_sheds(self, graph):
        h = make_harness(graph, timeout=0.5, seed=1, max_in_flight=2)
        report = h.run(PoissonArrivals(3000.0), horizon=0.1, max_queries=150)
        assert report.count(SHED) > 0
        # the station never holds more than workers + queue slots
        assert report.peak_in_flight <= 2

    def test_light_load_never_sheds(self, graph):
        h = make_harness(graph, timeout=1.0, seed=2)
        report = h.run(PoissonArrivals(20.0), horizon=0.5)
        assert report.count(SHED) == 0
        assert report.count("complete") > 0

    def test_queue_absorbs_then_expires(self, graph):
        # queue_depth > 0: bursts wait instead of shedding, and waiters
        # whose budget dies in the queue expire without touching a worker
        h = make_harness(
            graph, timeout=0.01, seed=3, max_in_flight=2, queue_depth=8
        )
        report = h.run(PoissonArrivals(3000.0), horizon=0.1, max_queries=150)
        assert report.count(EXPIRED) > 0
        assert report.peak_in_flight <= 2 + 8
        for log in report.logs:
            if log.disposition == EXPIRED:
                assert log.queue_time >= 0.01
                assert log.service_time == 0.0

    def test_latency_decomposes(self, graph):
        h = make_harness(graph, timeout=0.5, seed=4, max_in_flight=2,
                         queue_depth=4)
        report = h.run(PoissonArrivals(800.0), horizon=0.1, max_queries=80)
        served = [log for log in report.logs if log.served]
        assert served
        for log in served:
            assert log.latency == pytest.approx(
                log.queue_time + log.service_time, abs=1e-12
            )

    def test_tight_budget_split_degrades(self, graph):
        h = make_harness(
            graph,
            timeout=0.012,
            seed=5,
            server_kwargs={"tier1_budget_fraction": 0.4},
        )
        report = h.run(PoissonArrivals(200.0), horizon=0.3)
        assert report.count(DEGRADED) > 0

    def test_serves_the_callers_server(self, graph):
        server = QueryServer(graph, max_in_flight=2)
        h = LoadHarness(server, UniformMix(graph, k=KSampler(k_max=4)),
                        timeout=0.5, seed=11)
        report = h.run(PoissonArrivals(300.0), horizon=0.1)
        assert h.replicas[0].server is server and server.live is None
        served = [log for log in report.logs if log.served]
        assert served and {log.replica for log in served} == {0}
        assert sum(server.counters[o] for o in ("complete", "degraded",
                                                "partial", "failed")) == len(served)

    def test_graph_smaller_than_the_shard_count(self):
        # a lone server is not sharded: a 3-vertex graph serves fine
        tiny = from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
        report = LoadHarness(QueryServer(tiny)).run(
            [Query(0, 2, 1, request_id="a")], horizon=0.1
        )
        assert report.count("complete") == 1

    def test_trace_needs_unique_ids(self, graph):
        # hand-built queries default to request_id "": the run names it
        h = make_harness(graph)
        with pytest.raises(ValueError, match="request_id ''"):
            h.run([Query(0, 2, 1), Query(1, 3, 1)], horizon=0.1)

    def test_needs_a_mix(self, graph):
        h = LoadHarness(QueryServer(graph), mix=None)
        with pytest.raises(ValueError, match="query mix"):
            h.run(PoissonArrivals(10.0), horizon=0.1)


class TestClosedLoop:
    def test_in_flight_never_exceeds_population(self, graph):
        # 3 users against 64 worker slots: concurrency is bounded by the
        # population, the defining closed-loop property
        h = make_harness(graph, timeout=1.0, seed=6, max_in_flight=64)
        report = h.run(
            ClosedLoop(users=3, think_mean=0.001), horizon=0.3
        )
        assert report.logs
        assert report.peak_in_flight <= 3

    def test_large_population_stays_bounded(self, graph):
        h = make_harness(graph, timeout=0.5, seed=7, max_in_flight=8)
        report = h.run(
            ClosedLoop(users=50_000, think_mean=5.0),
            horizon=0.01,
            max_queries=60,
        )
        assert report.logs
        assert report.peak_in_flight <= 8  # station bound binds first

    def test_deterministic(self, graph):
        def once():
            h = make_harness(graph, timeout=0.2, seed=8)
            return h.run(
                ClosedLoop(users=10, think_mean=0.01), horizon=0.1
            ).metrics()

        assert once() == once()


class TestTraceReplayEquivalence:
    def test_replay_matches_live_generation(self, graph):
        """Record → replay drives the station identically to live
        generation from the same seed (the two share RNG streams)."""
        process = PoissonArrivals(300.0)
        mix_args = dict(horizon=0.15, seed=21, timeout=0.05)

        live = make_harness(graph, timeout=0.05, seed=21)
        live_report = live.run(process, horizon=0.15)

        queries = record_open_loop(
            process, UniformMix(graph, k=KSampler(k_max=4)), **mix_args
        )
        replay = make_harness(graph, timeout=0.05, seed=21)
        replay_report = replay.run(queries, horizon=0.15)

        def key(report):
            return [
                (log.request_id, log.issued_at, log.disposition, log.latency)
                for log in report.logs
            ]

        assert key(live_report) == key(replay_report)


class TestMetrics:
    def test_percentile_nearest_rank(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert percentile(vals, 50) == 2.0
        assert percentile(vals, 99) == 4.0
        assert percentile(vals, 100) == 4.0
        assert percentile([], 50) is None
        with pytest.raises(ValueError):
            percentile(vals, 0.0)

    def test_rates_partition(self, graph):
        h = make_harness(graph, timeout=0.02, seed=9, max_in_flight=2)
        report = h.run(PoissonArrivals(1000.0), horizon=0.1, max_queries=120)
        m = report.metrics()
        total = sum(m[f"{d}_rate"] for d in DISPOSITIONS)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert m["queries"] == len(report.logs)


class TestDispositionSummary:
    @staticmethod
    def log(rid, disposition, *, hedges=0):
        return QueryLog(
            request_id=rid, source=0, target=1, k=2, issued_at=0.0,
            disposition=disposition, hedges=hedges,
        )

    def test_counts_and_availability(self):
        logs = [
            self.log("a", "complete"),
            self.log("b", "degraded", hedges=1),
            self.log("c", "partial"),
            self.log("d", "failed"),
            self.log("e", SHED),
            self.log("f", EXPIRED),
        ]
        s = disposition_summary(logs)
        assert s["issued"] == 6
        assert s["answered"] == 3  # complete + degraded + partial
        assert s["availability"] == pytest.approx(0.5)
        assert s["hedged"] == 1
        assert {d for d in DISPOSITIONS} <= set(s)

    def test_server_shed_counter_merged(self):
        """Admission-control sheds never reach the harness log; the
        server counter folds them into the same ledger."""
        logs = [self.log("a", "complete")]
        s = disposition_summary(logs, {"shed": 3, "complete": 1})
        assert s["issued"] == 4
        assert s[SHED] == 3
        assert s["availability"] == pytest.approx(0.25)

    def test_empty_run_is_available(self):
        s = disposition_summary([])
        assert s["issued"] == 0
        assert s["availability"] == 1.0

    def test_report_wrapper_matches(self, graph):
        h = make_harness(graph, timeout=0.02, seed=9, max_in_flight=2)
        report = h.run(PoissonArrivals(800.0), horizon=0.1, max_queries=80)
        assert report.dispositions() == disposition_summary(report.logs)
        merged = dataclasses.replace(report, server_counters={"shed": 2})
        assert (
            merged.dispositions()["issued"]
            == disposition_summary(report.logs)["issued"] + 2
        )


@pytest.mark.parametrize("first", ["repro.fabric.fabric", "repro.load.harness"])
def test_either_layer_imports_first(first):
    """repro.load's loop exports resolve lazily: no import-order cycle."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = f"import {first}; from repro.load import LoadHarness, run_table"
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
