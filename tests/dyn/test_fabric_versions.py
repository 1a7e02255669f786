"""Graph-version consistency when the fabric replicates mutations.

The dyn-layer contract the fabric leans on: a :class:`LiveGraph` can be
(re)built *at* a checkpointed version, and a mutation batch applied to
every surviving replica leaves them all at the authority's version even
when a kill lands mid-stream.
"""

import pytest

from repro.distributed.comm import FaultPlan
from repro.dyn.live import LiveGraph
from repro.dyn.stream import IncidentStream, MutationBatch
from repro.fabric.fabric import FabricConfig, ServingFabric
from repro.fabric.replica import ACTIVE
from repro.graph.suite import suite_graph
from repro.load.arrivals import arrival_process
from repro.load.mixes import make_mix
from repro.serve.server import QueryServer


class TestLiveGraphVersionSeed:
    def test_starts_at_given_version(self):
        graph = suite_graph("LJ", "tiny")
        live = LiveGraph(graph, version=7)
        assert live.version == 7
        assert live.snapshot().version == 7

    def test_negative_version_rejected(self):
        graph = suite_graph("LJ", "tiny")
        with pytest.raises(ValueError):
            LiveGraph(graph, version=-1)

    def test_default_stays_zero(self):
        graph = suite_graph("LJ", "tiny")
        assert LiveGraph(graph).version == 0

    def test_server_stamps_the_start_version(self):
        """A server over a graph that starts at version 5 answers at
        version 5, not 0."""
        server = QueryServer(LiveGraph(suite_graph("LJ", "tiny"), version=5))
        assert server.batch.version == 5
        assert server.serve(0, 5, 2).graph_version == 5


class TestMutationFeed:
    def test_next_batch_drawn_after_previous_applied(self):
        """The feed is lazy: batch i+1 is drawn only once batch i is on
        the authority, so a stream sampling the current graph (as
        IncidentStream.batches does) sees the state it will apply to."""
        graph = suite_graph("LJ", "tiny")
        fabric = ServingFabric(graph, config=FabricConfig(seed=0))
        u, v = int(graph.edge_sources()[0]), int(graph.indices[0])
        w = float(graph.weights[0])
        drawn_at: list[int] = []

        def batches():
            for i in range(3):
                drawn_at.append(fabric.authority.version)
                yield MutationBatch.build(
                    reweights=[(u, v, w * (i + 2))], at=0.1 * (i + 1)
                )

        report = fabric.run([], horizon=0.5, mutations=batches())
        assert report.mutation_batches == 3
        assert drawn_at == [0, 1, 2]


class TestKillDuringMutations:
    @pytest.fixture(scope="class")
    def outcome(self):
        graph = suite_graph("LJ", "tiny")
        config = FabricConfig(seed=0)
        plan = FaultPlan.from_specs(["fabric.mutate:rankfail:2@R2"], seed=0)
        fabric = ServingFabric(
            graph,
            make_mix(graph, {"kind": "uniform", "scc": True}),
            config=config,
            fault_plan=plan,
        )
        batches = IncidentStream(seed=3, rate=80.0).batches(
            fabric.authority, 0.5
        )
        report = fabric.run(
            arrival_process({"kind": "poisson", "rate": 300.0}),
            horizon=0.5,
            max_queries=120,
            mutations=batches,
        )
        return fabric, report

    def test_survivors_share_the_authority_version(self, outcome):
        fabric, report = outcome
        assert report.mutation_batches > 0
        assert len(report.kills) == 1
        version = fabric.authority.version
        versions = {
            rid: fabric.replicas[rid].server.batch.version
            for rid in sorted(fabric.replicas)
            if fabric.replicas[rid].state == ACTIVE
        }
        assert versions, "no active replicas after the run"
        assert set(versions.values()) == {version}

    def test_recovered_replica_replayed_the_log(self, outcome):
        fabric, report = outcome
        kill = report.kills[0]
        assert kill.replica == 2
        assert kill.recovered_at is not None
        # batches that landed while dead were replayed, not dropped
        assert fabric.replicas[2].server.batch.version == fabric.authority.version
