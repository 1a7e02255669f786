"""The experiment runner: schema, seeding, byte-identical reruns, CLI."""

import json

import pytest

from repro.fabric.fabric import FabricConfig, ServingFabric
from repro.graph.suite import suite_graph
from repro.load.report import DISPOSITIONS
from repro.load.runner import (
    RunTable,
    ServerConfig,
    capacity_summary,
    cell_seed,
    run_table,
    tiny_table,
)

#: a deliberately small grid so the full runner executes in a second or
#: two; 1 traffic x 1 graph x 2 configs x 2 reps = 4 cells
MICRO = RunTable(
    name="micro",
    traffic=(("poisson", {"kind": "poisson", "rate": 500.0}),),
    graphs=("LJ",),
    configs=(
        ServerConfig(name="relaxed", timeout=0.5, max_in_flight=2),
        ServerConfig(
            name="tight", timeout=0.012, max_in_flight=2,
            tier1_budget_fraction=0.4,
        ),
    ),
    scale="tiny",
    repetitions=2,
    horizon=0.08,
    seed=13,
    max_queries=60,
)


@pytest.fixture(scope="module")
def payload():
    return run_table(MICRO)


class TestCellSeeds:
    def test_deterministic_and_distinct(self):
        seeds = {
            cell_seed(MICRO, label, graph, config.name, rep)
            for label, _, graph, config, rep in MICRO.cells()
        }
        assert len(seeds) == 4  # every cell decorrelated
        assert cell_seed(MICRO, "poisson", "LJ", "tight", 0) == cell_seed(
            MICRO, "poisson", "LJ", "tight", 0
        )

    def test_table_seed_shifts_every_cell(self):
        import dataclasses

        other = dataclasses.replace(MICRO, seed=14)
        assert cell_seed(MICRO, "poisson", "LJ", "tight", 0) != cell_seed(
            other, "poisson", "LJ", "tight", 0
        )


class TestPayloadSchema:
    def test_descriptor(self, payload):
        assert payload["benchmark"] == "serving"
        assert payload["table"] == "micro"
        assert payload["seed"] == 13
        assert set(payload["traffic"]) == {"poisson"}
        assert [c["name"] for c in payload["configs"]] == ["relaxed", "tight"]

    def test_rows(self, payload):
        rows = payload["rows"]
        assert len(rows) == 4
        required = {
            "traffic", "graph", "config", "rep", "seed", "offered_qps",
            "queries", "served", "throughput_qps", "goodput_qps",
            "latency_p50", "latency_p99", "latency_p999",
            "queue_p50", "queue_p99", "peak_in_flight", "counters",
        } | {f"{d}_rate" for d in DISPOSITIONS}
        for row in rows:
            assert required <= set(row)
            assert row["queries"] > 0

    def test_counters_attached(self, payload):
        for row in payload["rows"]:
            assert set(row["counters"]) == {"server", "trace"}
            served = row["counters"]["server"]
            assert sum(served[o] for o in ("complete", "degraded",
                                           "partial", "failed")) == row["served"]

    def test_tight_config_degrades(self, payload):
        tight = [r for r in payload["rows"] if r["config"] == "tight"]
        assert any(r["degraded_rate"] > 0 for r in tight)

    def test_json_serializable_and_reproducible(self, payload):
        again = run_table(MICRO)
        assert json.dumps(payload, indent=2) == json.dumps(again, indent=2)


class TestCapacitySummary:
    def test_renders_groups_and_tags(self, payload):
        text = capacity_summary(payload)
        assert "serving capacity" in text
        assert "poisson" in text and "tight" in text
        assert "DEGR" in text  # the tight config degraded somewhere

    def test_handles_missing_percentiles(self):
        empty = {
            "table": "t", "scale": "tiny", "seed": 0, "horizon": 1.0,
            "repetitions": 1,
            "rows": [{
                "traffic": "p", "graph": "LJ", "config": "c",
                "offered_qps": 1.0, "throughput_qps": 0.0,
                "latency_p50": None, "latency_p99": None,
                "latency_p999": None, "shed_rate": 1.0,
                "degraded_rate": 0.0, "partial_rate": 0.0,
                "failed_rate": 0.0,
            }],
        }
        text = capacity_summary(empty)
        assert "SHED" in text and "-" in text


class TestStockTables:
    def test_tiny_table_shape(self):
        table = tiny_table(seed=3)
        cells = list(table.cells())
        assert len(cells) == 8  # 2 traffic x 2 graphs x 2 configs x 1 rep
        assert table.seed == 3


class TestCLI:
    def test_record_and_replay(self, tmp_path, capsys):
        from repro.load.cli import main

        trace = tmp_path / "t.jsonl"
        assert main([
            "record", "--pattern", "poisson", "--rate", "200",
            "--graph", "LJ", "--horizon", "0.1", "--seed", "4",
            "--out", str(trace),
        ]) == 0
        assert trace.exists()
        assert main([
            "replay", "--trace", str(trace), "--graph", "LJ",
            "--timeout", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert '"queries"' in out

    def test_run_writes_outputs(self, tmp_path, capsys, monkeypatch):
        import repro.load.cli as cli

        monkeypatch.setitem(cli.TABLES, "micro", lambda seed=0: MICRO)
        json_path = tmp_path / "bench.json"
        txt_path = tmp_path / "capacity.txt"
        assert main_args_run(cli, json_path, txt_path) == 0
        payload = json.loads(json_path.read_text())
        assert payload["benchmark"] == "serving"
        assert txt_path.read_text().startswith("serving capacity")


def main_args_run(cli, json_path, txt_path):
    return cli.main([
        "run", "--table", "micro", "--json", str(json_path),
        "--summary", str(txt_path), "--quiet",
    ])


#: one replicated cell next to a single-server cell — the replicas axis
REPLICATED = RunTable(
    name="replicated",
    traffic=(("poisson", {"kind": "poisson", "rate": 400.0}),),
    graphs=("LJ",),
    configs=(
        ServerConfig(name="single", timeout=0.5, max_in_flight=2),
        ServerConfig(name="fabric2", timeout=0.5, max_in_flight=2, replicas=2),
    ),
    scale="tiny",
    repetitions=1,
    horizon=0.12,
    mix={"kind": "hotspot", "scc": True, "k": {"k_max": 4}},
    seed=7,
    max_queries=50,
)


class TestReplicasAxis:
    @pytest.fixture(scope="class")
    def rep_payload(self):
        return run_table(REPLICATED)

    def test_rows_carry_the_axis(self, rep_payload):
        by_config = {r["config"]: r for r in rep_payload["rows"]}
        assert by_config["single"]["replicas"] == 1
        assert by_config["fabric2"]["replicas"] == 2
        assert [c["replicas"] for c in rep_payload["configs"]] == [1, 2]

    def test_unified_dispositions_on_every_row(self, rep_payload):
        for row in rep_payload["rows"]:
            d = row["dispositions"]
            assert {k for k in DISPOSITIONS} <= set(d)
            assert {"issued", "answered", "availability", "hedged"} <= set(d)
            assert d["issued"] >= row["queries"]
            assert 0.0 <= d["availability"] <= 1.0

    def test_replicated_cell_has_fabric_metrics(self, rep_payload):
        row = next(r for r in rep_payload["rows"] if r["config"] == "fabric2")
        assert {"availability", "kills", "spills", "heartbeats"} <= set(row)
        assert row["kills"] == 0

    def test_replicated_cell_reproducible(self, rep_payload):
        again = run_table(REPLICATED)
        assert json.dumps(rep_payload, indent=2) == json.dumps(again, indent=2)


#: a replicated cell with retry jitter: every replica server carries it
JITTERED = ServerConfig(
    name="jitter2", timeout=0.5, max_in_flight=2, jitter=0.25, replicas=2
)


class TestJitterPlumbing:
    def test_replica_servers_carry_jitter_and_rng(self):
        graph = suite_graph("LJ", "tiny")
        fabric = ServingFabric(
            graph, config=FabricConfig(server=JITTERED, seed=5)
        )
        servers = [r.server for r in fabric.replicas.values()]
        assert len(servers) == 2
        for server in servers:
            assert server.retry.jitter == 0.25
            assert server._rng is not None
        # decorrelated per replica, but a pure function of the seed
        draws = [s._rng.random() for s in servers]
        assert draws[0] != draws[1]
        again = ServingFabric(graph, config=FabricConfig(server=JITTERED, seed=5))
        assert [r.server._rng.random() for r in again.replicas.values()] == draws

    def test_jittered_cell_reruns_byte_identical(self):
        import dataclasses

        table = dataclasses.replace(REPLICATED, configs=(JITTERED,))
        a, b = run_table(table), run_table(table)
        assert json.dumps(a, indent=2) == json.dumps(b, indent=2)
        assert a["configs"][0]["jitter"] == 0.25


class TestSingleServerCell:
    def test_static_graph_served_as_given(self):
        graph = suite_graph("LJ", "tiny")
        fabric = ServingFabric(
            graph, config=FabricConfig(server=ServerConfig(name="one"))
        )
        (replica,) = fabric.replicas.values()
        assert replica.server.graph is graph
        assert replica.server.live is None
        assert fabric.comm is None  # no heartbeats for a lone server
