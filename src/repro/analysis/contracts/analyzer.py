"""Orchestration: load → call graph → passes, with incremental caching.

Full mode parses every module, builds the call graph, runs the six
passes over everything, and applies the ``# contracts: disable=``
pragmas, reporting any pragma that suppressed nothing.  Incremental
mode (``--incremental``) keeps a small JSON cache mapping each module
to a *validity key* and its last findings; a module whose key still
matches is skipped by the passes and its cached findings replayed.

The key is what makes "incremental agrees with full" a theorem rather
than a hope.  It digests

* the module's own content hash,
* an *interface* digest: for each of its functions, the reachability
  bits (from public entries; from cancellation roots) and, per direct
  callee, the callee's module hash and every interprocedural summary a
  pass consumes (loop-work, reaches-checkpoint, validation summary,
  close-parameter set).  Summaries are transitive fixpoints, so a
  change three hops down flips a direct callee's summary and dirties
  this module;
* the analyzer config and, for modules involved in a footprint audit,
  the content hashes of the declarations module and every audited
  module (an audit finding diffs two modules; either side changing must
  re-run it).

Interprocedural structures are *always* rebuilt from the full tree —
they are cheap; only per-module CFG/dataflow work and finding emission
are skipped — so cached and fresh findings are drawn from identical
global state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.contracts import entrypoints, spans
from repro.analysis.contracts.callgraph import build_callgraph
from repro.analysis.contracts.cancellation import cancellation_reachable
from repro.analysis.contracts.config import ContractConfig, default_config
from repro.analysis.contracts.model import Project, load_project
from repro.analysis.contracts.registry import (
    CATALOGUE,
    PASSES,
    UNUSED_PRAGMA,
    PassContext,
)
from repro.analysis.findings import Finding

__all__ = ["AnalysisResult", "analyze_paths", "CACHE_VERSION"]

#: bumped whenever a module's findings can change for an unchanged key —
#: e.g. a new pass, so an old cache is never replayed as clean
CACHE_VERSION = 2


@dataclass
class AnalysisResult:
    findings: list[Finding]
    suppressed: int
    stats: dict
    project: Project
    #: modules replayed from cache / re-analyzed (incremental mode)
    cache_hits: list[str] = field(default_factory=list)
    cache_misses: list[str] = field(default_factory=list)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _module_keys(project, graph, config, ctx) -> dict[str, str]:
    config_digest = _sha(json.dumps(config.digest_fields(), sort_keys=True))
    close_summaries = spans.compute_close_summaries(ctx)
    val_summaries = entrypoints.compute_validation_summaries(ctx)
    cancel_keys = cancellation_reachable(ctx)
    shas = {m.module: m.sha for m in project.modules}

    audit_modules: set[str] = set()
    decl = project.find_module(config.declarations_module)
    if decl is not None:
        audit_modules.add(decl.module)
    for group in config.audits:
        for suffix, _ in group.functions:
            mod = project.find_module(suffix)
            if mod is not None:
                audit_modules.add(mod.module)
    audit_digest = _sha(
        json.dumps(sorted((m, shas[m]) for m in audit_modules))
    )

    keys: dict[str, str] = {}
    for mod in project.modules:
        interface = []
        for fn in sorted(mod.functions, key=lambda f: f.key):
            callees = []
            for c in sorted(graph.edges.get(fn.key, ())):
                callee_fn = graph.by_key.get(c)
                callees.append(
                    [
                        c,
                        callee_fn.module.sha if callee_fn else "",
                        graph.does_loop_work.get(c, False),
                        graph.reaches_checkpoint.get(c, False),
                        val_summaries.get(c, ""),
                        sorted(close_summaries.get(c, ())),
                    ]
                )
            interface.append(
                [
                    fn.key,
                    fn.key in graph.reachable_from_entries,
                    fn.key in cancel_keys,
                    callees,
                ]
            )
        parts = [
            CACHE_VERSION,
            mod.sha,
            config_digest,
            sorted(graph.registry_factories),
            interface,
        ]
        if mod.module in audit_modules:
            parts.append(audit_digest)
        keys[mod.module] = _sha(json.dumps(parts, sort_keys=True))
    return keys


def _suppress(findings, project, check_modules) -> tuple[list[Finding], dict[str, int]]:
    """Apply ``# contracts: disable=`` pragmas; returns kept + per-module count.

    A pragma in ``check_modules`` that suppressed nothing comes back as
    an ``UNUSED_PRAGMA`` finding: a stale suppression would otherwise sit
    silently until it hides the next real finding on its statement.
    """
    by_module = project.by_module()
    kept: list[Finding] = []
    suppressed: dict[str, int] = {}
    used: set[tuple[str, int]] = set()
    for f in findings:
        module = str(f.context.get("module", ""))
        mod = by_module.get(module)
        hits = (
            [p.line for p in mod.pragmas if p.suppresses(f.rule, f.line)]
            if mod is not None and f.line is not None
            else []
        )
        if hits:
            suppressed[module] = suppressed.get(module, 0) + 1
            used.update((module, line) for line in hits)
        else:
            kept.append(f)
    for module in check_modules:
        mod = by_module[module]
        for p in mod.pragmas:
            if (module, p.line) not in used:
                kept.append(
                    Finding(
                        tool="contracts",
                        rule=UNUSED_PRAGMA,
                        severity="error",
                        message=(
                            f"`disable={','.join(sorted(p.rules))}` pragma "
                            "suppresses no finding; delete it"
                        ),
                        path=mod.path,
                        line=p.line,
                        context={"module": module},
                    )
                )
    return kept, suppressed


def _count_loops(project) -> int:
    import ast

    n = 0
    for fn in project.functions():
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
                n += 1
    return n


def _sort_key(f: Finding):
    return (f.path or "", f.line or 0, f.column or 0, f.rule, f.message)


def analyze_paths(
    paths,
    *,
    config: ContractConfig | None = None,
    cache_path: str | Path | None = None,
) -> AnalysisResult:
    """Run every pass over ``paths``; incremental iff ``cache_path`` given."""
    config = config or default_config()
    project = load_project(paths)
    graph = build_callgraph(project, config)
    ctx = PassContext(project=project, graph=graph, config=config)

    for mod in project.modules:
        if mod.syntax_error:
            raise SyntaxError(f"{mod.path}: {mod.syntax_error}")

    cache: dict = {}
    if cache_path is not None and Path(cache_path).exists():
        try:
            raw = json.loads(Path(cache_path).read_text(encoding="utf-8"))
            if raw.get("version") == CACHE_VERSION:
                cache = raw.get("modules", {})
        except (json.JSONDecodeError, OSError):
            cache = {}

    keys = _module_keys(project, graph, config, ctx)
    all_modules = {m.module for m in project.modules}
    if cache_path is not None:
        clean = {
            m
            for m in all_modules
            if m in cache and cache[m].get("key") == keys[m]
        }
    else:
        clean = set()
    dirty = all_modules - clean

    fresh: list[Finding] = []
    for info in PASSES:
        run_pass = info.run
        fresh.extend(run_pass(ctx, only_modules=None if not clean else dirty))
    fresh, suppressed_by_mod = _suppress(fresh, project, sorted(dirty))

    findings: list[Finding] = []
    suppressed_total = 0
    new_cache: dict = {}
    fresh_by_mod: dict[str, list[Finding]] = {}
    for f in fresh:
        fresh_by_mod.setdefault(str(f.context.get("module", "")), []).append(f)
    for module in sorted(all_modules):
        if module in clean:
            entry = cache[module]
            mod_findings = [Finding(**d) for d in entry.get("findings", [])]
            n_suppressed = int(entry.get("suppressed", 0))
        else:
            mod_findings = fresh_by_mod.get(module, [])
            n_suppressed = suppressed_by_mod.get(module, 0)
        findings.extend(mod_findings)
        suppressed_total += n_suppressed
        new_cache[module] = {
            "key": keys[module],
            "findings": [f.to_dict() for f in sorted(mod_findings, key=_sort_key)],
            "suppressed": n_suppressed,
        }

    if cache_path is not None:
        Path(cache_path).write_text(
            json.dumps({"version": CACHE_VERSION, "modules": new_cache}, indent=2)
            + "\n",
            encoding="utf-8",
        )

    findings.sort(key=_sort_key)
    rule_counts: dict[str, int] = {}
    for f in findings:
        rule_counts[f.rule] = rule_counts.get(f.rule, 0) + 1
    pass_of_rule = {r: pass_id for pass_id, _, rules in CATALOGUE for r in rules}
    pass_counts = {pass_id: 0 for pass_id, _, _ in CATALOGUE}
    for f in findings:
        pass_counts[pass_of_rule[f.rule]] += 1
    stats = {
        "modules": len(project.modules),
        "functions": sum(1 for _ in project.functions()),
        "loops": _count_loops(project),
        "call_edges": sum(len(v) for v in graph.edges.values()),
        "registry_factories": len(graph.registry_factories),
        "entry_points": len(graph.entry_keys),
        "findings": len(findings),
        "suppressed": suppressed_total,
        "by_rule": {k: rule_counts[k] for k in sorted(rule_counts)},
        "by_pass": pass_counts,
    }
    return AnalysisResult(
        findings=findings,
        suppressed=suppressed_total,
        stats=stats,
        project=project,
        cache_hits=sorted(clean),
        cache_misses=sorted(dirty),
    )
