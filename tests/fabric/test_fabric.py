"""The serving fabric end-to-end: kills, recovery, failover, elastic."""

import json

import pytest

from repro.cli import main as peek_main
from repro.distributed.comm import FaultPlan
from repro.dyn.live import LiveGraph
from repro.dyn.stream import IncidentStream
from repro.fabric.elastic import ElasticPolicy
from repro.fabric.fabric import (
    FabricConfig,
    FabricReport,
    ServerConfig,
    ServingFabric,
    report_row,
)
from repro.fabric.replica import ACTIVE, STANDBY
from repro.graph.suite import suite_graph
from repro.load.arrivals import arrival_process
from repro.load.mixes import make_mix
from repro.load.report import LoadReport
from repro.serve.server import QueryServer

KILL = "fabric.heartbeat:rankfail:3@R1"
MIX = {"kind": "hotspot", "scc": True, "k": {"dist": "small_heavy", "k_max": 4}}
STEADY = {"kind": "poisson", "rate": 400.0}


@pytest.fixture(scope="module")
def graph():
    return suite_graph("LJ", "tiny")


def build(graph, *, inject=None, seed=0, **over):
    config = FabricConfig(seed=seed, **over)
    plan = FaultPlan.from_specs(inject, seed=seed) if inject else None
    return ServingFabric(
        graph, make_mix(graph, dict(MIX)), config=config, fault_plan=plan
    )


def run(fabric, *, horizon=0.5, max_queries=150, **kwargs):
    return fabric.run(
        arrival_process(dict(STEADY)),
        horizon=horizon,
        max_queries=max_queries,
        **kwargs,
    )


class TestKillRecovery:
    def test_kill_drain_recover(self, graph):
        fabric = build(graph, inject=[KILL])
        report = run(fabric)
        assert len(report.kills) == 1
        kill = report.kills[0]
        assert kill.replica == 1
        assert kill.recovered_at is not None and kill.recovered_at > kill.at
        assert kill.ttr == pytest.approx(kill.recovered_at - kill.at)
        assert kill.within_budget
        # the replica rejoined and the fleet ended fully active
        assert report.replica_states == {0: ACTIVE, 1: ACTIVE, 2: ACTIVE}
        assert report.dist["failures"] == 1

    def test_restored_replica_matches_authority(self, graph):
        fabric = build(graph, inject=[KILL])
        run(fabric)
        authority = fabric.authority
        restored = fabric.replicas[1].server
        assert restored.batch.version == authority.version

    def test_no_kill_no_failures(self, graph):
        report = run(build(graph))
        assert report.kills == []
        assert report.dist["failures"] == 0
        assert report.dispositions()["availability"] == 1.0

    def test_recovery_window_queries_are_answered(self, graph):
        fabric = build(graph, inject=[KILL])
        report = run(fabric)
        window = report.recovery_window_dispositions()
        served = {
            k for k, v in window.items() if v and k not in ("shed", "expired")
        }
        assert served <= {"complete", "degraded"}


class TestDeterminism:
    def test_double_run_byte_identical(self, graph):
        rows = [
            json.dumps(report_row("kill", run(build(graph, inject=[KILL]))))
            for _ in range(2)
        ]
        assert rows[0] == rows[1]

    def test_seed_changes_the_run(self, graph):
        a = run(build(graph, seed=0))
        b = run(build(graph, seed=1))
        assert [log.issued_at for log in a.logs] != [
            log.issued_at for log in b.logs
        ]  # different arrival streams


class TestFailoverEquivalence:
    def test_hedged_results_bitwise_match_unfailed_run(self, graph):
        """A query hedged off a killed replica returns exactly the result
        the unfailed fabric would have returned."""
        clean = run(build(graph), keep_results=True)
        failed = run(build(graph, inject=[KILL]), keep_results=True)
        hedged = [log for log in failed.logs if log.hedges > 0]
        assert hedged, "the seeded kill should strand at least one flight"
        for log in hedged:
            assert log.disposition == "complete"
            assert failed.results[log.request_id] == clean.results[log.request_id]

    def test_all_completed_results_match(self, graph):
        clean = run(build(graph), keep_results=True)
        failed = run(build(graph, inject=[KILL]), keep_results=True)
        done = {
            log.request_id for log in clean.logs if log.disposition == "complete"
        } & {
            log.request_id for log in failed.logs if log.disposition == "complete"
        }
        assert done
        for rid in done:
            assert clean.results[rid] == failed.results[rid]


class TestMutationConsistency:
    def test_kill_during_mutations_keeps_survivors_in_step(self, graph):
        """A replica killed while batches stream leaves every surviving
        (and recovered) replica at the authority's graph version."""
        fabric = build(graph, inject=["fabric.mutate:rankfail:2@R1"])
        batches = IncidentStream(seed=0, rate=60.0).batches(fabric.authority, 0.5)
        report = run(fabric, mutations=batches)
        assert report.mutation_batches > 0
        assert len(report.kills) == 1
        version = fabric.authority.version
        assert version > 0
        for rid in sorted(fabric.replicas):
            replica = fabric.replicas[rid]
            if replica.server is not None and replica.state == ACTIVE:
                assert replica.server.batch.version == version, rid

    def test_replay_counts_missed_batches(self, graph):
        fabric = build(graph, inject=["fabric.mutate:rankfail:1@R1"])
        batches = IncidentStream(seed=0, rate=120.0).batches(fabric.authority, 0.5)
        report = run(fabric, mutations=batches)
        kill = report.kills[0]
        assert kill.recovered_at is not None
        assert kill.missed_batches >= 0
        assert report.mutation_batches > kill.missed_batches


class _FakeReplica:
    def __init__(self, state, workers, load):
        self.state = state
        self.workers = workers
        self._load = load

    def load_at(self, t):
        return self._load


class TestElasticPolicy:
    def test_scale_up_picks_lowest_standby(self):
        policy = ElasticPolicy(cooldown_ticks=0)
        replicas = {
            0: _FakeReplica(ACTIVE, 4, 4),
            1: _FakeReplica(ACTIVE, 4, 4),
            3: _FakeReplica(STANDBY, 0, 0),
            2: _FakeReplica(STANDBY, 0, 0),
        }
        assert policy.decide(replicas, 0.0) == ("scale_up", 2)

    def test_scale_down_respects_floor(self):
        policy = ElasticPolicy(min_replicas=2, cooldown_ticks=0)
        replicas = {
            0: _FakeReplica(ACTIVE, 4, 0),
            1: _FakeReplica(ACTIVE, 4, 0),
        }
        assert policy.decide(replicas, 0.0) is None  # at the floor
        replicas[2] = _FakeReplica(ACTIVE, 4, 0)
        assert policy.decide(replicas, 0.0) == ("scale_down", 2)

    def test_cooldown_suppresses_flapping(self):
        policy = ElasticPolicy(min_replicas=1, cooldown_ticks=2)
        replicas = {
            0: _FakeReplica(ACTIVE, 4, 0),
            1: _FakeReplica(ACTIVE, 4, 0),
        }
        assert policy.decide(replicas, 0.0) == ("scale_down", 1)
        assert policy.decide(replicas, 0.1) is None  # cooling down
        assert policy.decide(replicas, 0.2) is None
        assert policy.decide(replicas, 0.3) == ("scale_down", 1)

    def test_fabric_scales_under_burst(self, graph):
        fabric = build(
            graph,
            max_replicas=5,
            elastic=ElasticPolicy(min_replicas=2),
        )
        report = fabric.run(
            arrival_process(
                {
                    "kind": "mmpp",
                    "rate_low": 200.0,
                    "rate_high": 800.0,
                    "dwell_low": 0.15,
                    "dwell_high": 0.05,
                }
            ),
            horizon=1.0,
            max_queries=600,
        )
        actions = [e.action for e in report.elastic_events]
        assert "scale_up" in actions
        assert "scale_down" in actions


class TestPeakInFlight:
    def test_counts_queued_queries_at_arrival(self, graph):
        """peak_in_flight is occupancy at each arrival instant: a query
        still waiting in a replica queue counts, as admission control
        and the closed-loop bound assume."""
        report = build(graph).run(
            arrival_process({"kind": "poisson", "rate": 3000.0}),
            horizon=0.2,
            max_queries=200,
        )
        served = [log for log in report.logs if log.served]
        assert any(log.queue_time > 0 for log in served)
        expected = max(
            1 + sum(
                1 for prior in served[:i]
                if prior.issued_at + prior.latency > log.issued_at
            )
            for i, log in enumerate(served)
        )
        assert report.peak_in_flight == expected


CLOSED = {"kind": "closed", "users": 12, "think_mean": 0.01}


class TestClosedLoop:
    """Closed-loop populations run on the fleet; only a kill plan,
    whose hedges would move the instants think times anchor on, is
    refused."""

    def test_reruns_byte_identical_and_bounded(self, graph):
        def once():
            report = build(graph).run(
                arrival_process(dict(CLOSED)), horizon=0.3, max_queries=150
            )
            return report, json.dumps(report_row("closed", report))

        (report, row), (_, again) = once(), once()
        assert row == again
        assert report.logs
        assert report.peak_in_flight <= CLOSED["users"]

    def test_every_query_gets_one_disposition(self, graph):
        report = build(graph).run(
            arrival_process(dict(CLOSED)), horizon=0.3, max_queries=150
        )
        ids = [log.request_id for log in report.logs]
        assert ids == [f"q{i:06d}" for i in range(len(ids))]
        d = report.dispositions()
        assert d["issued"] == len(ids) == sum(
            d[k] for k in ("complete", "degraded", "partial", "failed",
                           "shed", "expired")
        )

    def test_closed_loop_with_kill_plan_rejected(self, graph):
        fabric = build(graph, inject=[KILL])
        with pytest.raises(ValueError, match="kill plan"):
            fabric.run(arrival_process(dict(CLOSED)), horizon=0.1)


ONE = FabricConfig(server=ServerConfig(name="one", timeout=0.5))


class TestSingleReplica:
    """One replica and no fault plan is a single server over the graph
    as given; the fleet-facing entry points still accept it."""

    @pytest.mark.parametrize("mutations", [False, True])
    def test_cli_serves_one_replica(self, tmp_path, mutations):
        out = tmp_path / "one.json"
        argv = ["fabric", "--replicas", "1", "--horizon", "0.2",
                "--max-queries", "60", "--quiet", "--json", str(out)]
        assert peek_main(argv + (["--mutations"] if mutations else [])) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["kills"] == 0 and row["heartbeats"] == 0
        assert row["replica_states"] == {"0": ACTIVE}
        assert row["router_rejected"] == row["dispositions"]["shed"]
        assert row["dispositions"]["issued"] == row["queries"] > 0
        assert (row["mutation_batches"] > 0) == mutations

    def test_report_row_reads_a_bare_report(self, graph):
        fabric = ServingFabric(graph, make_mix(graph, dict(MIX)), config=ONE)
        report = run(fabric, horizon=0.2, max_queries=60)
        assert type(report) is LoadReport
        row = report_row("one", report)
        assert row["kill_records"] == [] and row["recovery_window"] == {}
        assert row["availability"] == report.dispositions()["availability"]

    def test_static_single_server_refuses_mutations(self, graph):
        fabric = ServingFabric(graph, make_mix(graph, dict(MIX)), config=ONE)
        assert fabric.authority is None
        batches = list(
            IncidentStream(seed=0, rate=40.0).batches(LiveGraph(graph), 0.2)
        )
        with pytest.raises(ValueError, match="live graph"):
            run(fabric, horizon=0.2, mutations=batches)

    def test_caller_server_runs_alone(self, graph):
        server = QueryServer(graph)
        with pytest.raises(ValueError, match="runs alone"):
            ServingFabric(server=server, config=FabricConfig())
        with pytest.raises(ValueError, match="runs alone"):
            ServingFabric(
                server=server, config=ONE,
                fault_plan=FaultPlan.from_specs([KILL], seed=0),
            )
        with pytest.raises(TypeError):
            ServingFabric()
        with pytest.raises(TypeError):
            ServingFabric(graph, server=server)
        assert isinstance(
            run(build(graph), horizon=0.1, max_queries=20), FabricReport
        )
