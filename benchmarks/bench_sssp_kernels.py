#!/usr/bin/env python
"""Substrate ablation — SSSP kernel and execution backend (paper §6.2).

The paper builds everything on Δ-stepping "instead of sequentially
processing one-vertex-at-a-time in Dijkstra's algorithm".  This bench has
two modes:

* **pytest** (``test_sssp_kernel_choice``, via ``PYTHONPATH=src python -m
  pytest benchmarks/bench_sssp_kernels.py --benchmark-only``): compares
  the three kernels on the suite's largest graph — real serial seconds,
  traversal rate (MTEPS), and the parallel-phase structure that justifies
  Δ-stepping.
* **standalone** (``make bench-kernels``, i.e. ``PYTHONPATH=src python
  benchmarks/bench_sssp_kernels.py``):
  sweeps the Δ-stepping *execution backends* (scalar reference loop,
  vectorized frontier kernel, shared-memory multiprocessing at 1 and 2
  workers) across the medium suite, asserting bitwise-identical
  ``dist``/``parent`` per row before recording anything, and writes
  ``BENCH_sssp_kernels.json`` (the ``BENCH_hot_path.json`` row schema) plus
  ``results/sssp_kernels.txt``.

``speedup`` on each row is wall-clock relative to the **scalar** backend on
the same (graph, source) — the honest baseline, since the scalar engine
runs the identical bucket/batch sequence.  ``host_cpus`` is recorded
because mp speedups are physically bounded by real cores: on a single-core
host the mp rows measure orchestration overhead, not parallelism.

Environment knobs / CLI:

* ``REPRO_SCALE``        — tiny / small / medium (default: medium)
* ``REPRO_SSSP_GRAPHS``  — comma-separated suite names (default: LJ,GT,WL)
* ``REPRO_SSSP_SOURCES`` — sources per graph (default: 1)
* ``--backend {scalar,vectorized,mp}`` — restrict the swept backends
  (repeatable; default: all, plus a Dijkstra context row)
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.sssp import bellman_ford, delta_stepping, dijkstra

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# pytest mode — kernel-choice ablation (unchanged contract)
# ---------------------------------------------------------------------------
def run(runner, graph_name: str):
    g = runner.graph(graph_name)
    s, _ = runner.pairs(graph_name)[0]
    rows = []
    ref = None
    for name, kernel in (
        ("Dijkstra", dijkstra),
        ("Delta-stepping", delta_stepping),
        ("Bellman-Ford", bellman_ford),
    ):
        t0 = time.perf_counter()
        res = kernel(g, s)
        secs = time.perf_counter() - t0
        if ref is None:
            ref = res.dist
        else:
            assert np.allclose(
                np.nan_to_num(res.dist, posinf=-1),
                np.nan_to_num(ref, posinf=-1),
            ), name
        mteps = res.stats.edges_relaxed / max(secs, 1e-9) / 1e6
        rows.append(
            [
                name,
                secs,
                res.stats.edges_relaxed,
                res.stats.phases,
                mteps,
            ]
        )
    return rows


def test_sssp_kernel_choice(benchmark, runner, emit):
    from repro.bench.experiments import ExperimentReport

    rows = benchmark.pedantic(
        lambda: run(runner, "GT"), rounds=1, iterations=1
    )
    emit(
        ExperimentReport(
            experiment="sssp_kernels",
            title="Substrate ablation — SSSP kernel choice on GT (§6.2)",
            header=["kernel", "seconds", "relaxations", "phases", "MTEPS"],
            rows=rows,
            digits=4,
        )
    )
    by_name = {r[0]: r for r in rows}
    # the parallel-structure argument: Δ-stepping needs orders of magnitude
    # fewer synchronisation phases than Dijkstra's one-vertex-at-a-time
    assert by_name["Delta-stepping"][3] < by_name["Dijkstra"][3] / 10
    # ...while relaxing far fewer edges than Bellman-Ford's full sweeps
    assert (
        by_name["Delta-stepping"][2] < by_name["Bellman-Ford"][2]
    )


# ---------------------------------------------------------------------------
# standalone mode — Δ-stepping backend sweep
# ---------------------------------------------------------------------------
def _time_variant(variant, graph, source):
    """Run one (variant, graph, source) cell; returns (result, wall)."""
    t0 = time.perf_counter()
    if variant == "dijkstra":
        res = dijkstra(graph, source)
    elif variant == "scalar":
        res = delta_stepping(graph, source, backend="scalar")
    elif variant == "vectorized":
        res = delta_stepping(graph, source, backend="vectorized")
    elif variant.startswith("mp-"):
        workers = int(variant.split("-", 1)[1])
        res = delta_stepping(
            graph, source, backend="mp", num_workers=workers
        )
    else:  # pragma: no cover - guarded by argparse choices
        raise ValueError(variant)
    return res, time.perf_counter() - t0


def _variants_for(backends):
    out = ["dijkstra"]  # context row: the serial-substrate alternative
    if "scalar" in backends:
        out.append("scalar")
    if "vectorized" in backends:
        out.append("vectorized")
    if "mp" in backends:
        out += ["mp-1", "mp-2"]
    return out


def run_backend_suite(scale, graph_names, sources_per_graph, backends):
    from repro.graph.suite import random_st_pairs, suite_graph

    rows = []
    variants = _variants_for(backends)
    for name in graph_names:
        graph = suite_graph(name, scale)
        pairs = random_st_pairs(graph, sources_per_graph, seed=17)
        for source, _ in pairs:
            results = {}
            for variant in variants:
                results[variant], wall = _time_variant(
                    variant, graph, int(source)
                )
                res = results[variant]
                common = {
                    "algo": "SSSP",
                    "graph": name,
                    "scale": scale,
                    "n": graph.num_vertices,
                    "m": graph.num_edges,
                    "source": int(source),
                    "k": 0,  # schema compatibility; SSSP has no K
                    "variant": variant,
                    "wall_seconds": round(wall, 6),
                    "edges_relaxed": int(res.stats.edges_relaxed),
                }
                rows.append(common)
                print(
                    f"{name:>4} s={int(source):>7} {variant:>10}: "
                    f"{wall:8.3f}s  {res.stats.edges_relaxed:>10} relaxed"
                )
            # bitwise acceptance gate: every Δ-stepping backend must agree
            # exactly (dist AND parent) before any number is recorded
            if "scalar" in results:
                ref = results["scalar"]
                for variant, res in results.items():
                    if variant in ("dijkstra", "scalar"):
                        continue
                    assert np.array_equal(
                        ref.dist, res.dist, equal_nan=True
                    ), f"{name}/{variant}: dist mismatch vs scalar"
                    assert np.array_equal(ref.parent, res.parent), (
                        f"{name}/{variant}: parent mismatch vs scalar"
                    )
                base_wall = next(
                    r["wall_seconds"]
                    for r in rows
                    if r["graph"] == name
                    and r["source"] == int(source)
                    and r["variant"] == "scalar"
                )
                for r in rows:
                    if (
                        r["graph"] == name
                        and r["source"] == int(source)
                        and r["variant"] not in ("dijkstra", "scalar")
                        and r["wall_seconds"]
                    ):
                        r["speedup"] = round(
                            base_wall / r["wall_seconds"], 3
                        )
    return rows


def render(rows, scale):
    lines = [
        "Δ-stepping execution backends: scalar vs vectorized vs mp",
        f"scale={scale}  host_cpus={os.cpu_count()}  "
        "(bitwise-identical dist/parent asserted per row; "
        "speedup is vs the scalar backend)",
        "",
        f"{'graph':>5} {'source':>8} {'variant':>10} {'wall (s)':>10} "
        f"{'edges relaxed':>14} {'speedup':>8}",
    ]
    for r in rows:
        speedup = f"{r['speedup']:.2f}x" if r.get("speedup") else ""
        lines.append(
            f"{r['graph']:>5} {r['source']:>8} {r['variant']:>10} "
            f"{r['wall_seconds']:>10.3f} {r['edges_relaxed']:>14} {speedup:>8}"
        )
    by_variant: dict[str, list[float]] = {}
    for r in rows:
        if r.get("speedup"):
            by_variant.setdefault(r["variant"], []).append(r["speedup"])
    lines.append("")
    for variant, sp in sorted(by_variant.items()):
        mean = sum(sp) / len(sp)
        lines.append(
            f"{variant}: mean speedup {mean:.2f}x over {len(sp)} runs"
        )
    if os.cpu_count() == 1:
        lines.append(
            "note: single-core host — mp rows measure orchestration "
            "overhead, not parallelism; real-core scaling needs >= 2 cpus"
        )
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        action="append",
        choices=["scalar", "vectorized", "mp"],
        help="restrict swept backends (repeatable; default: all)",
    )
    ns = parser.parse_args()
    backends = ns.backend or ["scalar", "vectorized", "mp"]

    scale = os.environ.get("REPRO_SCALE", "medium")
    graph_names = [
        g.strip()
        for g in os.environ.get("REPRO_SSSP_GRAPHS", "LJ,GT,WL").split(",")
        if g.strip()
    ]
    sources = int(os.environ.get("REPRO_SSSP_SOURCES", "1"))

    rows = run_backend_suite(scale, graph_names, sources, backends)
    payload = {
        "benchmark": "sssp_kernels",
        "scale": scale,
        "k": 0,
        "pairs_per_graph": sources,
        "host_cpus": os.cpu_count(),
        "rows": rows,
    }
    json_path = REPO_ROOT / "BENCH_sssp_kernels.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    report = render(rows, scale)
    txt_path = REPO_ROOT / "results" / "sssp_kernels.txt"
    txt_path.parent.mkdir(exist_ok=True)
    txt_path.write_text(report + "\n")
    print(f"\n{report}\n\n[saved to {json_path} and {txt_path}]")


if __name__ == "__main__":
    main()
