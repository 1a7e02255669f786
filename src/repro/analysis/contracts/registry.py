"""The pass catalogue and the context handed to every pass.

Each pass is a module exposing ``run(ctx, only_modules=None) ->
list[Finding]``; ``only_modules`` restricts which modules may *carry*
findings (incremental mode re-analyzes dirty modules only), while the
interprocedural structures — call graph, summaries — always span the
whole project, which is what makes an incremental run agree with a full
one by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.contracts import (
    cancellation,
    determinism,
    entrypoints,
    footprints,
    local,
    spans,
)
from repro.analysis.contracts.callgraph import CallGraph
from repro.analysis.contracts.config import ContractConfig
from repro.analysis.contracts.model import Project

__all__ = ["PassContext", "PassInfo", "PASSES", "CATALOGUE", "RULES", "UNUSED_PRAGMA"]


@dataclass
class PassContext:
    project: Project
    graph: CallGraph
    config: ContractConfig


@dataclass(frozen=True)
class PassInfo:
    pass_id: str
    title: str
    rules: tuple[str, ...]
    run: object  # run(ctx, only_modules=None) -> list[Finding]


PASSES: tuple[PassInfo, ...] = (
    PassInfo(
        "determinism",
        "determinism discipline",
        ("CTR101", "CTR102", "CTR103"),
        determinism.run,
    ),
    PassInfo(
        "cancellation",
        "cancellation coverage",
        ("CTR201",),
        cancellation.run,
    ),
    PassInfo(
        "spans",
        "interprocedural span pairing",
        ("CTR301",),
        spans.run,
    ),
    PassInfo(
        "footprints",
        "static footprint audit",
        ("CTR401", "CTR402"),
        footprints.run,
    ),
    PassInfo(
        "entrypoints",
        "entry-point contracts",
        ("CTR501",),
        entrypoints.run,
    ),
    PassInfo(
        "local",
        "intraprocedural local rules",
        ("RPR001", "RPR003", "RPR004", "RPR005"),
        local.run,
    ),
)

#: emitted by the analyzer's pragma step, not by a pass
UNUSED_PRAGMA = "CTR001"

#: ``(group id, title, rules)`` rows of --list-rules and the self-report:
#: every pass, then the pragma step
CATALOGUE: tuple[tuple[str, str, tuple[str, ...]], ...] = tuple(
    (info.pass_id, info.title, info.rules) for info in PASSES
) + (("pragmas", "unused suppression pragmas", (UNUSED_PRAGMA,)),)

#: rule id → one-line description (drives --list-rules and SARIF metadata)
RULES: dict[str, str] = {
    UNUSED_PRAGMA: "`# contracts: disable=` pragma that suppresses no finding",
    "CTR101": "entry-reachable use of module-level RNG state",
    "CTR102": "wall-clock read outside the injectable clock module",
    "CTR103": "RNG object stored in a module global",
    "CTR201": "unbounded loop reachable from solve()/serve() never checkpoints",
    "CTR301": "manually opened span not closed on every CFG path",
    "CTR401": "parallel phase writes a shared array its recorder never declares",
    "CTR402": "recorder declares a write no audited phase performs",
    "CTR501": "public entry reaches kernel code before validate_query()",
    "RPR001": "CSRGraph backing array mutated outside repro/graph/ and "
    "repro/core/compaction.py",
    "RPR003": "O(n) numpy allocation inside a loop on the KSP/SSSP hot path "
    "or a serving/load/dyn event loop",
    "RPR004": "float cost, latency or time compared with == / != "
    "(use repro.paths.costs_close)",
    "RPR005": "registry free function is not a thin alias of repro.solve",
}
