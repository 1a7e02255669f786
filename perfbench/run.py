"""Run one PeeK benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the gated end-to-end metrics; ``--trace 1`` runs the
same operations a second time as public stage calls and prints the
per-layer metrics.  Every line but the last is a human-readable report
(host facts, commit, seed, graph sizes, every named metric with its unit
and sample count); the last line is one JSON object::

    {"correct": true, "attempted": 110, "failed": 0, "metrics": {...}}

See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
#: reads per run also checked against unpruned OptYen (seconds each)
VERIFY_SAMPLE = 1
#: a pass stops issuing operations after this many times ``--seconds``
TIME_CAP = 3.0
#: the traced pass re-runs stages (a live write twice), so it takes up to
#: ~1.6x the timed pass's busy time; a hot-set pair with a large kept
#: subgraph can push that past ``TIME_CAP``
TRACE_CAP = 5.0


def _host_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _finite(value):
    """JSON-safe number: ``None`` for a metric with no samples."""
    value = float(value)
    return value if math.isfinite(value) else None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", default="medium", help="suite scale (tiny for smoke tests)")
    return p.parse_args(argv)


def run(args) -> dict:
    """Run one workload; returns the report dict (``result`` is the JSON line)."""
    import bench

    repeats = SETUP_REPEATS if args.trace == 0 else 1
    ctx, setup_times = bench.timed_setup(args.workload, args.scale, args.seed, repeats)
    ops = bench.make_ops(ctx, args.seconds)
    sampled = bench.sample_reads(ops, args.seed, VERIFY_SAMPLE)
    timed = bench.timed_pass(ctx, ops, budget=TIME_CAP * args.seconds, sampled=sampled)
    failures = bench.check_pass(timed, sampled)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "commit": _git_commit(),
        "host": _host_facts(),
        "graphs": {
            name: {"n": g.num_vertices, "m": g.num_edges}
            for name, g in ctx.graphs.items()
        },
        "operations": {"planned": len(ops), "attempted": len(timed.records)},
        "setup_s_samples": setup_times,
        "busy_share": timed.busy / timed.wall if timed.wall else 0.0,
    }
    if args.trace:
        ctx = None  # the traced pass replays on a fresh, identical set-up
        fresh = bench.setup(args.workload, args.scale, args.seed)
        layers, mismatches = bench.traced_pass(fresh, timed, budget=TRACE_CAP * args.seconds)
        for i, problems in mismatches.items():
            failures.setdefault(i, []).extend(problems)
        metrics = bench.per_layer(timed, layers)
        report["traced_reads"] = layers.reads
        report["traced_writes"] = layers.writes
    else:
        metrics = bench.end_to_end(args.workload, timed, setup_times)
    named = bench.named_metrics(args.workload, timed, len(failures))
    report["named_metrics"] = {
        k: {"value": _finite(v), "unit": u, "samples": n} for k, (v, u, n) in named.items()
    }
    report["failures"] = {str(i): p for i, p in sorted(failures.items())[:20]}
    correct = not failures and len(timed.records) == len(ops)
    report["result"] = {
        "correct": correct,
        "attempted": len(timed.records),
        "failed": len(failures),
        "metrics": {
            name: {"value": _finite(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one serving thread: keep native libraries from spawning their own
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.environ.pop("REPRO_CACHE_DIR", None)  # set-up must generate, not load
    os.environ.pop("RPR_SANITIZE", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    report = run(args)
    result = report.pop("result")
    print("# perfbench " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
