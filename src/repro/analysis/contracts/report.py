"""The self-report: what the analyzer looked at and what it concluded.

``repro-contracts --report results/contracts_report.txt`` writes a small
human-readable summary — module/function/loop counts, findings per
pass, suppression count — so a reviewer can see at a glance that the
analyzer actually covered the tree (a run that silently analyzed three
files and found nothing would be indistinguishable from a clean bill of
health otherwise).  Content is derived purely from the analysis result;
no timestamps, so the artifact is reproducible byte-for-byte.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.contracts.registry import CATALOGUE, RULES

__all__ = ["render_report", "write_report"]


def render_report(result) -> str:
    s = result.stats
    lines = [
        "repro-contracts self-report",
        "===========================",
        "",
        "coverage",
        f"  modules analyzed:    {s['modules']}",
        f"  functions:           {s['functions']}",
        f"  loops:               {s['loops']}",
        f"  call-graph edges:    {s['call_edges']}",
        f"  registry factories:  {s['registry_factories']}",
        f"  entry points:        {s['entry_points']}",
        "",
        "findings by pass",
    ]
    by_pass = s.get("by_pass", {})
    for pass_id, _, rules in CATALOGUE:
        lines.append(
            f"  {pass_id:<13} ({'/'.join(rules)}): {by_pass.get(pass_id, 0)}"
        )
    by_rule = s.get("by_rule", {})
    if by_rule:
        lines.append("")
        lines.append("findings by rule")
        for rule, count in by_rule.items():
            lines.append(f"  {rule}: {count}  ({RULES.get(rule, '')})")
    lines += [
        "",
        f"total findings:      {s['findings']}",
        f"suppressed (pragma): {s['suppressed']}",
        "",
    ]
    return "\n".join(lines)


def write_report(result, path: str | Path) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(render_report(result), encoding="utf-8")
