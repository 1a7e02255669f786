"""``peek-load`` — workload generation and capacity experiments.

Three subcommands:

* ``run`` — execute a stock run table (``tiny`` or ``medium``) and write
  the ``BENCH_serving.json`` payload plus the capacity summary::

      peek-load run --table tiny --json BENCH_serving.json \\
          --summary results/serving_capacity.txt

* ``record`` — materialize an open-loop workload as a JSONL trace::

      peek-load record --pattern poisson --rate 200 --graph LJ \\
          --horizon 0.5 --seed 7 --out trace.jsonl

* ``replay`` — drive a server with a recorded trace and print the
  metrics row::

      peek-load replay --trace trace.jsonl --graph LJ --timeout 0.05

Everything runs on simulated time; the same seed always produces the
same bytes (see ``docs/load_testing.md``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.fabric.fabric import FabricConfig, ServingFabric
from repro.graph.suite import SCALES, suite_graph
from repro.load.arrivals import arrival_process
from repro.load.mixes import make_mix
from repro.load.runner import TABLES, ServerConfig, run_table, write_outputs
from repro.load.trace import dump_trace, load_trace, record_open_loop

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="peek-load",
        description="Seeded workload generation and serving-capacity experiments.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a stock run table")
    run.add_argument(
        "--table", default="tiny", choices=sorted(TABLES), help="stock run table"
    )
    run.add_argument("--seed", type=int, default=0, help="table master seed")
    run.add_argument("--json", default="BENCH_serving.json", help="payload path")
    run.add_argument(
        "--summary",
        default="results/serving_capacity.txt",
        help="capacity-table path ('' to skip)",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )

    rec = sub.add_parser("record", help="record an open-loop workload trace")
    rec.add_argument("--pattern", default="poisson", choices=("poisson", "mmpp", "diurnal"))
    rec.add_argument("--rate", type=float, default=100.0, help="poisson rate (qps)")
    rec.add_argument("--rate-low", type=float, default=50.0, help="mmpp low rate")
    rec.add_argument("--rate-high", type=float, default=500.0, help="mmpp high rate")
    rec.add_argument("--dwell-low", type=float, default=0.2, help="mmpp low dwell mean")
    rec.add_argument("--dwell-high", type=float, default=0.05, help="mmpp high dwell mean")
    rec.add_argument("--amplitude", type=float, default=0.8, help="diurnal amplitude")
    rec.add_argument("--period", type=float, default=1.0, help="diurnal period (s)")
    rec.add_argument("--mix", default="uniform", choices=("uniform", "hotspot"))
    rec.add_argument("--graph", default="LJ", help="suite graph name")
    rec.add_argument("--scale", default="tiny", choices=SCALES)
    rec.add_argument("--horizon", type=float, default=1.0, help="simulated seconds")
    rec.add_argument("--timeout", type=float, default=None, help="per-query budget")
    rec.add_argument("--max-queries", type=int, default=None)
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--out", required=True, help="trace output path (JSONL)")

    rep = sub.add_parser("replay", help="replay a trace against a server")
    rep.add_argument("--trace", required=True, help="trace path (JSONL)")
    rep.add_argument("--graph", default="LJ", help="suite graph name")
    rep.add_argument("--scale", default="tiny", choices=SCALES)
    rep.add_argument("--timeout", type=float, default=None, help="budget override")
    rep.add_argument("--max-in-flight", type=int, default=4)
    rep.add_argument("--queue-depth", type=int, default=0)
    rep.add_argument(
        "--tier1-budget-fraction", type=float, default=None, help="budget split"
    )
    rep.add_argument("--seed", type=int, default=0)
    return p


def _pattern_spec(args: argparse.Namespace) -> dict:
    if args.pattern == "poisson":
        return {"kind": "poisson", "rate": args.rate}
    if args.pattern == "mmpp":
        return {
            "kind": "mmpp",
            "rate_low": args.rate_low,
            "rate_high": args.rate_high,
            "dwell_low": args.dwell_low,
            "dwell_high": args.dwell_high,
        }
    return {
        "kind": "diurnal",
        "base_rate": args.rate,
        "amplitude": args.amplitude,
        "period": args.period,
    }


def _cmd_run(args: argparse.Namespace) -> int:
    table = TABLES[args.table](seed=args.seed)
    progress = None if args.quiet else lambda line: print(line)
    payload = run_table(table, progress=progress)
    write_outputs(
        payload,
        json_path=args.json,
        summary_path=args.summary or None,
    )
    shed = sum(1 for r in payload["rows"] if r["shed_rate"] > 0)
    degraded = sum(1 for r in payload["rows"] if r["degraded_rate"] > 0)
    print(
        f"\n{len(payload['rows'])} cells -> {args.json}"
        f" ({shed} with shedding, {degraded} with degradation)"
    )
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    spec = _pattern_spec(args)
    graph = suite_graph(args.graph, args.scale)
    mix_spec = {"kind": args.mix}
    queries = record_open_loop(
        arrival_process(spec),
        make_mix(graph, mix_spec),
        horizon=args.horizon,
        seed=args.seed,
        timeout=args.timeout,
        max_queries=args.max_queries,
    )
    dump_trace(
        queries,
        args.out,
        source={
            "pattern": spec,
            "mix": mix_spec,
            "graph": args.graph,
            "scale": args.scale,
            "horizon": args.horizon,
            "seed": args.seed,
        },
    )
    print(f"{len(queries)} queries -> {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    queries = load_trace(args.trace)
    graph = suite_graph(args.graph, args.scale)
    config = ServerConfig(
        name="replay",
        timeout=args.timeout,
        max_in_flight=args.max_in_flight,
        queue_depth=args.queue_depth,
        tier1_budget_fraction=args.tier1_budget_fraction,
    )
    # trace replay carries its own query content: no mix
    fabric = ServingFabric(graph, config=FabricConfig(server=config, seed=args.seed))
    horizon = max((q.issued_at for q in queries), default=0.0) + 1e-9
    report = fabric.run(queries, horizon=horizon)
    print(json.dumps(report.metrics(), indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "record":
        return _cmd_record(args)
    return _cmd_replay(args)


if __name__ == "__main__":
    sys.exit(main())
