"""Benchmark harness: everything needed to regenerate the paper's tables
and figures lives here as library code; the ``benchmarks/`` directory holds
thin pytest-benchmark wrappers around these functions, and ``peek bench``
exposes them directly.
"""

from repro.bench.harness import ExperimentRunner, RunRecord
from repro.bench.tables import format_table, format_markdown
from repro.bench import experiments

__all__ = [
    "ExperimentRunner",
    "RunRecord",
    "format_table",
    "format_markdown",
    "experiments",
]
