#!/usr/bin/env python
"""KSP hot-path benchmark: epoch-stamped SSSP workspaces on vs. off.

Times Yen, OptYen, and PeeK on medium-suite graphs twice per query — once
with ``use_workspace=False`` (the historical fresh-allocation spur
searches, i.e. the pre-workspace baseline code path) and once with the
solver-shared epoch-stamped workspace — asserting the two produce identical
path sets before recording anything.

Outputs (both machine- and human-readable, so future PRs have a perf
trajectory to compare against):

* ``BENCH_hot_path.json`` at the repo root — one row per (algo, graph, K,
  variant) with ``wall_seconds`` and ``edges_relaxed``, plus a computed
  ``speedup`` on each workspace row.  A PeeK row's ``edges_relaxed`` counts
  both its prune-stage SSSPs and its KSP stage; the prune share alone is
  ``prune_edges_relaxed``;
* ``results/hot_path.txt`` — the rendered before/after table.

Environment knobs:

* ``REPRO_SCALE``       — tiny / small / medium (default: medium)
* ``REPRO_HOT_GRAPHS``  — comma-separated suite names (default: LJ,WL)
* ``REPRO_HOT_K``       — K per query (default: 8)
* ``REPRO_HOT_PAIRS``   — s-t pairs per graph (default: 1)

Run via ``make bench`` or ``PYTHONPATH=src python benchmarks/bench_hot_path.py``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.peek import PeeK
from repro.graph.suite import random_st_pairs, suite_graph
from repro.ksp.optyen import OptYenKSP
from repro.ksp.yen import YenKSP

REPO_ROOT = Path(__file__).resolve().parent.parent

ALGOS = (("Yen", YenKSP), ("OptYen", OptYenKSP), ("PeeK", PeeK))


def _run_once(cls, graph, source, target, k, use_workspace):
    t0 = time.perf_counter()
    solver = cls(graph, source, target, use_workspace=use_workspace)
    result = solver.run(k)
    wall = time.perf_counter() - t0
    return result, wall


def _relaxations(result) -> dict:
    """Edge-relaxation counts of one run, PeeK's prune stage included."""
    ksp = int(result.stats.edges_relaxed)
    prune = getattr(result, "prune", None)
    if prune is None:
        return {"edges_relaxed": ksp}
    pruned = int(prune.stats.edges_relaxed)
    return {"edges_relaxed": pruned + ksp, "prune_edges_relaxed": pruned}


def run_suite(scale, graph_names, k, pairs):
    rows = []
    for name in graph_names:
        graph = suite_graph(name, scale)
        st_pairs = random_st_pairs(graph, pairs, seed=17)
        for source, target in st_pairs:
            for algo_name, cls in ALGOS:
                base_res, base_wall = _run_once(
                    cls, graph, source, target, k, use_workspace=False
                )
                ws_res, ws_wall = _run_once(
                    cls, graph, source, target, k, use_workspace=True
                )
                base_paths = [(p.distance, p.vertices) for p in base_res.paths]
                ws_paths = [(p.distance, p.vertices) for p in ws_res.paths]
                assert base_paths == ws_paths, (
                    f"{algo_name}/{name}: workspace changed the K paths"
                )
                common = {
                    "algo": algo_name,
                    "graph": name,
                    "scale": scale,
                    "n": graph.num_vertices,
                    "m": graph.num_edges,
                    "source": int(source),
                    "target": int(target),
                    "k": k,
                }
                rows.append(
                    {
                        **common,
                        "variant": "fresh",
                        "wall_seconds": round(base_wall, 6),
                        **_relaxations(base_res),
                    }
                )
                rows.append(
                    {
                        **common,
                        "variant": "workspace",
                        "wall_seconds": round(ws_wall, 6),
                        **_relaxations(ws_res),
                        "speedup": round(base_wall / ws_wall, 3) if ws_wall else None,
                    }
                )
                print(
                    f"{algo_name:>7} {name:>4} K={k}: "
                    f"fresh {base_wall:8.3f}s  workspace {ws_wall:8.3f}s  "
                    f"({base_wall / ws_wall:4.2f}x)"
                )
    return rows


def render(rows, scale, k):
    lines = [
        "KSP hot path: fresh-allocation spur searches vs epoch-stamped workspace",
        f"scale={scale}  K={k}  (identical path sets asserted per row)",
        "",
        f"{'algo':>7} {'graph':>5} {'variant':>10} {'wall (s)':>10} "
        f"{'edges relaxed':>14} {'speedup':>8}",
    ]
    for r in rows:
        speedup = f"{r['speedup']:.2f}x" if r.get("speedup") else ""
        lines.append(
            f"{r['algo']:>7} {r['graph']:>5} {r['variant']:>10} "
            f"{r['wall_seconds']:>10.3f} {r['edges_relaxed']:>14} {speedup:>8}"
        )
    by_algo: dict[str, list[float]] = {}
    for r in rows:
        if r.get("speedup"):
            by_algo.setdefault(r["algo"], []).append(r["speedup"])
    lines.append("")
    for algo, sp in by_algo.items():
        mean = sum(sp) / len(sp)
        lines.append(f"{algo}: mean workspace speedup {mean:.2f}x over {len(sp)} queries")
    return "\n".join(lines)


def main() -> None:
    scale = os.environ.get("REPRO_SCALE", "medium")
    graph_names = os.environ.get("REPRO_HOT_GRAPHS", "LJ,WL").split(",")
    k = int(os.environ.get("REPRO_HOT_K", "8"))
    pairs = int(os.environ.get("REPRO_HOT_PAIRS", "1"))

    rows = run_suite(scale, [g.strip() for g in graph_names if g.strip()], k, pairs)
    payload = {
        "benchmark": "hot_path",
        "scale": scale,
        "k": k,
        "pairs_per_graph": pairs,
        "rows": rows,
    }
    json_path = REPO_ROOT / "BENCH_hot_path.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    report = render(rows, scale, k)
    txt_path = REPO_ROOT / "results" / "hot_path.txt"
    txt_path.parent.mkdir(exist_ok=True)
    txt_path.write_text(report + "\n")
    print(f"\n{report}\n\n[saved to {json_path} and {txt_path}]")


if __name__ == "__main__":
    main()
