"""Tests of the benchmark itself, at tiny scale.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
for p in (ROOT / "src", HERE):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import bench  # noqa: E402
import run  # noqa: E402
from repro.api import solve  # noqa: E402
from repro.paths import Path as KPath  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "4"  # long enough for live-mutate to apply a few batches


def _run(workload, trace, seed=3):
    args = run.parse_args(
        ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", str(trace), "--scale", "tiny"]
    )
    return run.run(args)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    report = _run(workload, trace)
    result = report["result"]
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in listed}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
    for m in report["named_metrics"].values():
        assert m["samples"] >= 1
    assert report["host"]["nproc"] >= 1 and report["graphs"]["LJ"]["m"] > 0


def test_traced_counters_repeat_exactly():
    first = _run("live-mutate", 1)["result"]["metrics"]
    second = _run("live-mutate", 1)["result"]["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "share")]
    timing = {"trace.coverage", "trace.overhead_share", "serve.busy_share"}
    for name in counts:
        if name not in timing:
            assert first[name]["value"] == second[name]["value"], name


def _live_pass(seed):
    ctx = bench.setup("live-mutate", "tiny", seed)
    timed = bench.timed_pass(ctx, bench.make_ops(ctx, 3.0), budget=60.0)
    return timed, ctx.live.graph


def _batch_key(batch):
    return [getattr(batch, f).tolist() for f in ("delete_src", "reweight_w", "tombstone")]


def test_same_seed_same_operations_batches_and_versions():
    a, graph_a = _live_pass(7)
    b, graph_b = _live_pass(7)
    key = [(r.op.kind, r.op.source, r.op.target, r.op.k, r.version) for r in a.records]
    assert key == [(r.op.kind, r.op.source, r.op.target, r.op.k, r.version) for r in b.records]
    writes = [(ra.op.batch, rb.op.batch) for ra, rb in zip(a.records, b.records)
              if ra.op.kind == "write"]
    assert writes and all(_batch_key(x) == _batch_key(y) for x, y in writes)
    assert np.array_equal(graph_a.weights, graph_b.weights)
    assert bench.check_pass(a) == {}


def _solved():
    ctx = bench.setup("cold-solve", "tiny", 5)
    op = bench.make_ops(ctx, 1.0)[0]
    g = ctx.graphs[op.graph]
    return g, op, solve(g, op.source, op.target, op.k).paths


def test_checker_accepts_a_true_answer():
    g, op, paths = _solved()
    from scipy.sparse.csgraph import dijkstra

    d = dijkstra(bench._scipy_matrix(g), indices=op.source)[op.target]
    assert bench.check_answer(g, op, paths, float(d)) == []
    assert bench.check_unpruned(g, op, paths) == []


def test_checker_catches_a_corrupted_answer():
    g, op, paths = _solved()
    from scipy.sparse.csgraph import dijkstra

    d = float(dijkstra(bench._scipy_matrix(g), indices=op.source)[op.target])
    # a first path claiming a shorter distance than its edges sum to
    fake = [KPath(paths[0].distance * 0.5, paths[0].vertices)] + paths[1:]
    assert bench.check_answer(g, op, fake, d)
    # the true paths reported in the wrong order
    assert bench.check_answer(g, op, paths[::-1], d)
    # one path dropped: locally valid, caught by unpruned OptYen
    assert bench.check_unpruned(g, op, paths[:-1])


def test_check_pass_and_traced_replay_flag_a_corrupted_record():
    ctx = bench.setup("cold-solve", "tiny", 5)
    ops = bench.make_ops(ctx, 1.0)
    timed = bench.timed_pass(ctx, ops, budget=60.0, sampled=frozenset({0}))
    assert bench.check_pass(timed) == {}
    rec = timed.records[0]
    d, verts = rec.answer[0]
    rec.answer = ((d + 1.0, verts),) + rec.answer[1:]
    rec.snapshot, rec.problems = ctx.graphs[rec.op.graph], None
    assert 0 in bench.check_pass(timed)
    _, mismatches = bench.traced_pass(bench.setup("cold-solve", "tiny", 5), timed, budget=60.0)
    assert list(mismatches) == [0]


def _record(graph="LJ", due=None, ms=1.0):
    rec = bench.Record(bench.Op("read", due, graph), outcome="complete")
    rec.latency = rec.service = ms / 1e3
    return rec


def test_gated_latencies_use_the_steady_samples():
    # warm-serve: the open-loop phase stays out of the gated metrics
    closed = [_record(ms=10.0 + i) for i in range(11)]
    opened = [_record(due=0.1 * i, ms=500.0) for i in range(30)]
    warm = bench.end_to_end("warm-serve", bench.TimedPass(closed + opened, 1.0, 1.0), [1.0])
    assert warm["p50_ms"][0] == pytest.approx(15.0)
    assert warm["tail_ms"][0] == pytest.approx(19.0)
    # cold-solve: the median is taken per graph, not in the gap between them
    solves = [_record("LJ", ms=100.0) for _ in range(5)] + [_record("WL", ms=400.0) for _ in range(6)]
    cold = bench.end_to_end("cold-solve", bench.TimedPass(solves, 1.0, 1.0), [1.0])
    assert cold["p50_ms"][0] == pytest.approx(200.0)
