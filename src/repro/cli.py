"""``peek`` — the one command line (also ``python -m repro``).

One parser, five subcommands::

    peek bench table3 --scale tiny --pairs 1 --deadline 20
    peek bench --suite --scale tiny
    peek bench --profile GT --k 16
    peek bench table3 --scale tiny --trace results/table3_trace.jsonl
    peek serve --graph GT --queries 20 --timeout 0.5 --k 8
    peek load run --table tiny --json BENCH_serving.json \\
        --summary results/serving_capacity.txt
    peek load record --pattern poisson --rate 200 --graph LJ \\
        --horizon 0.5 --seed 7 --out trace.jsonl
    peek load replay --trace trace.jsonl --timeout 0.05
    peek dyn smoke --json /tmp/dyn.json --summary /tmp/dyn.txt
    peek fabric --replicas 3 --workload mmpp \\
        --inject "fabric.heartbeat:rankfail:3@R1" --json fabric.json

``bench`` regenerates the paper's tables and figures on the wall clock;
``serve`` drives a :class:`~repro.serve.QueryServer` with seeded random
queries.  ``load``, ``dyn`` and ``fabric`` run on simulated time, so the
same seed always produces the same bytes (the CI smoke jobs run each
twice and ``cmp`` the outputs).

Flags that several subcommands take are defined once, in ``_SHARED``;
each subcommand attaches the ones it has, with its own default.  Bad
input — an unknown graph, a malformed ``--inject`` spec, a replay graph
that contradicts the trace — exits with status 2 and a one-line message.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import ExperimentRunner, default_scale
from repro.cancel import now
from repro.dyn.smoke import run_smoke, smoke_summary
from repro.fabric.fabric import (
    MMPP_SPEC,
    FabricConfig,
    ServingFabric,
    run_scenario,
    slo_text,
)
from repro.graph.suite import SCALES, SUITE_NAMES, random_st_pairs, suite_graph
from repro.load.arrivals import arrival_process
from repro.load.mixes import make_mix
from repro.load.runner import TABLES, ServerConfig, run_table, write_outputs
from repro.load.trace import dump_trace, load_trace, record_open_loop, trace_source
from repro.serve.faults import FAULT_KINDS, FaultInjector, parse_fault_spec
from repro.serve.server import OUTCOMES, QueryServer

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """Bad input found after parsing; reported like an argparse error."""


def _fault_spec(spec: str) -> str:
    """Validate an ``--inject`` spec at parse time; keep it as text."""
    try:
        parse_fault_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: the flags several subcommands share, defined once
_SHARED: dict[str, dict] = {
    "graph": dict(choices=SUITE_NAMES, help="suite graph (default: %(default)s)"),
    "scale": dict(choices=SCALES, help="suite scale (default: %(default)s)"),
    "seed": dict(type=int, help="master seed (default: %(default)s)"),
    "timeout": dict(
        type=float, help="per-query budget in seconds (default: %(default)s)"
    ),
    "horizon": dict(type=float, help="simulated seconds (default: %(default)s)"),
    "kernel": dict(
        choices=("delta", "dijkstra"),
        help="pruning-stage SSSP kernel (default: %(default)s)",
    ),
    "inject": dict(
        action="append",
        type=_fault_spec,
        metavar="STAGE:KIND[:AT_HIT][@RANK | @R<N>]",
        help="fault rule, e.g. prune.scan:timeout, sssp:transient:3, "
        "dist.sssp.route:rankfail:5@2 or fabric.heartbeat:rankfail:3@R1 "
        f"(kinds: {', '.join(FAULT_KINDS)}); repeatable",
    ),
    "json": dict(help="JSON payload path (default: %(default)s)"),
    "summary": dict(help="text summary path, '' to skip (default: %(default)s)"),
    "quiet": dict(action="store_true", help="suppress the progress and summary printout"),
}


def _shared(parser: argparse.ArgumentParser, **defaults) -> None:
    """Attach the shared flags named in ``defaults``, with those defaults."""
    for name, default in defaults.items():
        parser.add_argument(f"--{name}", default=default, **_SHARED[name])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="peek",
        description="PeeK K shortest paths: the paper's experiments and "
        "the serving stack.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    bench = sub.add_parser(
        "bench",
        help="regenerate the paper's tables and figures",
        description="Regenerate the PeeK paper's tables and figures "
        "(no experiment: list them).",
    )
    bench.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment ids ({' '.join(ALL_EXPERIMENTS)}) or 'all'",
    )
    bench.add_argument(
        "--suite",
        action="store_true",
        help="print the benchmark graph suite's characterisation table",
    )
    bench.add_argument(
        "--profile",
        metavar="GRAPH",
        choices=SUITE_NAMES,
        help="print a per-stage PeeK timing breakdown on a suite graph",
    )
    bench.add_argument("--k", type=int, default=32, help="K for --profile (default 32)")
    _shared(bench, scale=default_scale())
    bench.add_argument("--pairs", type=int, default=None, help="s-t pairs per graph")
    bench.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-run deadline in seconds (paper used 1 hour)",
    )
    bench.add_argument(
        "--out", default="results", help="directory for the report files"
    )
    bench.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        help="record a span trace of everything this invocation runs and "
        "write it as JSONL (an ASCII stage tree is printed on exit)",
    )

    serve = sub.add_parser(
        "serve", help="serve seeded random KSP queries under a deadline"
    )
    _shared(
        serve, graph="GT", scale="tiny", seed=2023, timeout=None,
        kernel="delta", inject=[],
    )
    serve.add_argument("--queries", type=int, default=10, help="query count")
    serve.add_argument("--k", type=int, default=8, help="paths per query")

    load = sub.add_parser(
        "load", help="seeded workload generation and serving-capacity runs"
    )
    load_sub = load.add_subparsers(dest="load_command", required=True)
    run = load_sub.add_parser("run", help="execute a stock run table")
    run.add_argument(
        "--table", default="tiny", choices=sorted(TABLES), help="stock run table"
    )
    _shared(
        run, seed=0, json="BENCH_serving.json",
        summary="results/serving_capacity.txt", quiet=False,
    )
    rec = load_sub.add_parser("record", help="record an open-loop workload trace")
    rec.add_argument("--pattern", default="poisson", choices=("poisson", "mmpp", "diurnal"))
    rec.add_argument("--rate", type=float, default=100.0, help="poisson rate (qps)")
    rec.add_argument("--rate-low", type=float, default=50.0, help="mmpp low rate")
    rec.add_argument("--rate-high", type=float, default=500.0, help="mmpp high rate")
    rec.add_argument("--dwell-low", type=float, default=0.2, help="mmpp low dwell mean")
    rec.add_argument("--dwell-high", type=float, default=0.05, help="mmpp high dwell mean")
    rec.add_argument("--amplitude", type=float, default=0.8, help="diurnal amplitude")
    rec.add_argument("--period", type=float, default=1.0, help="diurnal period (s)")
    rec.add_argument("--mix", default="uniform", choices=("uniform", "hotspot"))
    _shared(rec, graph="LJ", scale="tiny", horizon=1.0, timeout=None, seed=0)
    rec.add_argument("--max-queries", type=int, default=None)
    rec.add_argument("--out", required=True, help="trace output path (JSONL)")
    rep = load_sub.add_parser(
        "replay",
        help="replay a trace against a server",
        description="Replay a trace against a server; --graph and --scale "
        "default to the ones the trace recorded.",
    )
    rep.add_argument("--trace", required=True, help="trace path (JSONL)")
    _shared(rep, graph=None, scale=None, timeout=None, seed=0)
    rep.add_argument("--max-in-flight", type=int, default=4)
    rep.add_argument("--queue-depth", type=int, default=0)
    rep.add_argument(
        "--tier1-budget-fraction", type=float, default=None, help="budget split"
    )

    dyn = sub.add_parser("dyn", help="live-graph serving smoke runs")
    dyn_sub = dyn.add_subparsers(dest="dyn_command", required=True)
    smoke = dyn_sub.add_parser(
        "smoke",
        help="run the seeded serving smoke: mutation stream + hot query "
        "pool on simulated time",
    )
    _shared(
        smoke, graph="LJ", scale="tiny", seed=0, horizon=4.0,
        kernel="dijkstra", timeout=None, json="BENCH_dyn_smoke.json",
        summary="", quiet=False,
    )
    smoke.add_argument("--qps", type=float, default=40.0, help="query arrival rate")
    smoke.add_argument(
        "--mutation-rate", type=float, default=2.0, help="mutation batches per second"
    )
    smoke.add_argument(
        "--pool", type=_positive_int, default=6, help="hot query pool size"
    )

    fabric = sub.add_parser(
        "fabric", help="replicated, sharded KSP serving with seeded kills"
    )
    _shared(
        fabric, graph="LJ", scale="tiny", horizon=1.0, timeout=0.5,
        inject=[], seed=0, json=None, summary=None, quiet=False,
    )
    fabric.add_argument(
        "--replicas", type=_positive_int, default=3, help="serving replicas"
    )
    fabric.add_argument(
        "--workload",
        default="mmpp",
        choices=("steady", "mmpp"),
        help="steady poisson or the bursty medium-MMPP pattern",
    )
    fabric.add_argument("--rate", type=float, default=300.0, help="steady rate (qps)")
    fabric.add_argument("--max-queries", type=int, default=2000)
    fabric.add_argument(
        "--mutations",
        action="store_true",
        help="race a seeded incident stream against the queries",
    )
    fabric.add_argument(
        "--elastic", action="store_true", help="enable the scaling policy"
    )
    return p


def _out(path: str) -> Path:
    """``path`` with its parent directory created — every file this
    module writes itself goes through here (``write_outputs`` and
    ``Report.save`` create theirs)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------
def _bench(args: argparse.Namespace) -> int:
    if args.suite:
        _print_suite(args.scale)
        return 0
    if args.profile:
        _print_profile(args.profile, args.scale, args.k)
        return 0
    if not args.experiments:
        for name, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:8s}  {doc}")
        return 0
    wanted = (
        list(ALL_EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    )
    unknown = [e for e in wanted if e not in ALL_EXPERIMENTS]
    if unknown:
        raise _UsageError(f"unknown experiment(s): {', '.join(unknown)}")

    kwargs = {"scale": args.scale}
    if args.pairs is not None:
        kwargs["pairs_per_graph"] = args.pairs
    if args.deadline is not None:
        kwargs["deadline_seconds"] = args.deadline
    runner = ExperimentRunner(**kwargs)
    for name in wanted:
        t0 = now()
        report = ALL_EXPERIMENTS[name](runner)
        elapsed = now() - t0
        print(report.render())
        path = report.save(args.out)
        print(f"[{name} finished in {elapsed:.1f}s; saved to {path}]\n")
    return 0


def _print_suite(scale: str) -> None:
    from repro.bench.tables import format_table
    from repro.graph.metrics import summarize

    rows = []
    for name in SUITE_NAMES:
        g = suite_graph(name, scale)
        rows.append([name] + summarize(g, diameter_samples=2).row())
    print(
        format_table(
            [
                "graph", "n", "m", "avg deg", "max deg",
                "deg gini", "w min", "w max", "eff diam",
            ],
            rows,
            title=f"Benchmark suite at scale={scale} (paper Table 1 analogues)",
        )
    )


def _print_profile(graph_name: str, scale: str, k: int) -> None:
    from repro.bench.profiling import stage_breakdown

    g = suite_graph(graph_name, scale)
    (s, t), = random_st_pairs(g, 1, seed=2023)
    bd = stage_breakdown(g, s, t, k)
    print(
        f"PeeK stage breakdown on {graph_name} (scale={scale}, "
        f"{s}->{t}, K={k}):"
    )
    print(str(bd))


def _flush_trace(out_path: str) -> None:
    """Write the collected spans as JSONL and print the stage tree."""
    from repro.obs import Tracer, get_tracer, render_tree, set_tracer, write_jsonl

    tracer = get_tracer()
    set_tracer(None)
    if not isinstance(tracer, Tracer):  # pragma: no cover - defensive
        return
    write_jsonl(tracer, _out(out_path))
    print(f"[trace: {len(tracer.spans)} spans written to {out_path}]")
    print(render_tree(tracer.spans))


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
def _serve(args: argparse.Namespace) -> int:
    g = suite_graph(args.graph, args.scale)
    server = QueryServer(g, kernel=args.kernel)
    pairs = random_st_pairs(g, args.queries, seed=args.seed)
    rules = [parse_fault_spec(s) for s in args.inject]
    injector = FaultInjector(rules, seed=args.seed) if rules else None

    def run_all() -> None:
        for i, (s, t) in enumerate(pairs):
            res = server.serve(s, t, args.k, timeout=args.timeout)
            print(
                f"  #{i:<3d} {s}->{t}  outcome={res.outcome:<9s} "
                f"tier={res.tier or '-':<7s} paths={len(res.paths):<3d} "
                f"attempts={res.attempts} {res.elapsed * 1e3:8.1f} ms"
                + (f"  [{res.error}]" if res.error else "")
            )

    print(
        f"Serving {args.queries} queries on {args.graph} "
        f"(scale={args.scale}, K={args.k}, timeout={args.timeout}):"
    )
    if injector is not None:
        with injector.installed():
            run_all()
        print(f"faults fired: {injector.fired or 'none'}")
    else:
        run_all()
    dist = {o: server.counters[o] for o in OUTCOMES}
    print(f"outcomes: {dist}  retries={server.counters['retries']}")
    return 0 if server.counters["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------
def _load_run(args: argparse.Namespace) -> int:
    table = TABLES[args.table](seed=args.seed)
    payload = run_table(table, progress=None if args.quiet else print)
    write_outputs(
        payload, json_path=args.json, summary_path=args.summary or None
    )
    shed = sum(1 for r in payload["rows"] if r["shed_rate"] > 0)
    degraded = sum(1 for r in payload["rows"] if r["degraded_rate"] > 0)
    print(
        f"\n{len(payload['rows'])} cells -> {args.json}"
        f" ({shed} with shedding, {degraded} with degradation)"
    )
    return 0


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


def _load_record(args: argparse.Namespace) -> int:
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
        _out(args.out),
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


def _load_replay(args: argparse.Namespace) -> int:
    try:
        recorded = trace_source(args.trace)
        queries = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        raise _UsageError(str(exc)) from None
    # a trace records the graph it was sampled from: replaying it on
    # another graph serves vertex ids that mean nothing there
    for flag, fallback in (("graph", None), ("scale", "tiny")):
        given, meta = getattr(args, flag), recorded.get(flag)
        if given is not None and meta is not None and given != meta:
            raise _UsageError(
                f"--{flag} {given} contradicts the trace's recorded {flag} {meta}"
            )
        value = given or meta or fallback
        if value is None:
            raise _UsageError(f"the trace records no {flag}: pass --{flag}")
        setattr(args, flag, value)
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


# ---------------------------------------------------------------------------
# dyn, fabric
# ---------------------------------------------------------------------------
def _dyn_smoke(args: argparse.Namespace) -> int:
    payload = run_smoke(
        graph_name=args.graph,
        scale=args.scale,
        seed=args.seed,
        horizon=args.horizon,
        qps=args.qps,
        mutation_rate=args.mutation_rate,
        pool_size=args.pool,
        kernel=args.kernel,
        timeout=args.timeout,
    )
    _out(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    text = smoke_summary(payload)
    if args.summary:
        _out(args.summary).write_text(text + "\n")
    if not args.quiet:
        print(text)
        print(f"-> {args.json}")
    return 0


def _fabric(args: argparse.Namespace) -> int:
    workload = (
        MMPP_SPEC
        if args.workload == "mmpp"
        else {"kind": "poisson", "rate": args.rate}
    )
    row, config = run_scenario(
        args.workload + ("+kill" if args.inject else ""),
        suite_graph(args.graph, args.scale),
        workload=workload,
        seed=args.seed,
        replicas=args.replicas,
        timeout=args.timeout,
        inject=args.inject,
        elastic=args.elastic,
        mutations=args.mutations,
        horizon=args.horizon,
        max_queries=args.max_queries,
    )
    payload = {
        "benchmark": "fabric",
        "graph": args.graph,
        "scale": args.scale,
        "seed": args.seed,
        "horizon": args.horizon,
        "workload": workload,
        "inject": list(args.inject),
        "config": {
            "replicas": args.replicas,
            "max_replicas": config.max_replicas,
            "shards": config.shards,
            "timeout": args.timeout,
            "heartbeat_interval": config.heartbeat_interval,
            "recovery_budget_heartbeats": config.recovery_budget_heartbeats,
            "elastic": args.elastic,
        },
        "rows": [row],
    }
    if args.json:
        _out(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    text = slo_text(
        payload["rows"],
        title=(
            f"fabric SLO — graph={args.graph} scale={args.scale} "
            f"seed={args.seed} horizon={args.horizon}s"
        ),
    )
    if args.summary:
        _out(args.summary).write_text(text + "\n")
    if not args.quiet:
        print(text)
    print(
        f"\navailability={row['availability']:.4f} kills={row['kills']} "
        f"ttr_max={row['ttr_max']} recovery_within_budget="
        f"{row['recovery_within_budget']}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bench":
            if not args.trace:
                return _bench(args)
            from repro.obs import Tracer, set_tracer

            set_tracer(Tracer())
            try:
                return _bench(args)
            finally:
                _flush_trace(args.trace)
        if args.command == "serve":
            return _serve(args)
        if args.command == "load":
            if args.load_command == "run":
                return _load_run(args)
            if args.load_command == "record":
                return _load_record(args)
            return _load_replay(args)
        if args.command == "dyn":
            return _dyn_smoke(args)
        return _fabric(args)
    except _UsageError as exc:
        parser.exit(2, f"peek {args.command}: error: {exc}\n")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
