"""Suppression pragmas of the contract analyzer.

One comment dialect, read only from real comments (``tokenize``
COMMENT tokens — text in a string or docstring that merely looks like
a pragma is inert):

* ``# contracts: disable=ID1,ID2`` (or ``disable=all``) suppresses the
  named rules;
* ``# contracts: module=repro/ksp/foo.py`` overrides the inferred
  module path (the fixture corpora use it to exercise path-scoped rules
  from outside the source tree).

Statement-span expansion
------------------------
A pragma suppresses findings on every line of the *statement* it is
attached to, not just its own physical line.  Concretely, a pragma
found on any line of

* a **simple statement** spanning several lines (a wrapped call, a
  parenthesised assignment) suppresses findings reported anywhere in
  that statement — rules report at the expression start, which is often
  not the line carrying the trailing comment;
* the **decorator or header lines of a ``def`` / ``class``** suppresses
  findings anywhere inside that definition — decorators shift
  ``node.lineno`` to the ``def`` line, and rules like RPR005 report on
  body statements;
* the **header of any other compound statement** (``for``, ``while``,
  ``if``, ``with``, ``try``) suppresses over the (possibly multi-line)
  header only, *not* the body — a pragma on a loop line must not blanket
  everything inside the loop.

A pragma on a line belonging to no statement (a standalone comment)
applies to that line alone.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass

__all__ = ["Pragma", "parse_pragmas", "attach_pragmas"]

_PRAGMA_RE = re.compile(r"#\s*contracts:\s*(disable|module)\s*=\s*([\w./,\- ]+)")

_COMPOUND = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.If,
    ast.With,
    ast.AsyncWith,
    ast.Try,
    ast.Match,
)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(frozen=True)
class Pragma:
    """One ``disable=`` pragma and the line span it suppresses."""

    line: int  # the comment's own line
    rules: frozenset[str]
    first: int
    last: int

    def suppresses(self, rule: str, line: int) -> bool:
        return self.first <= line <= self.last and (
            rule in self.rules or "ALL" in self.rules
        )


def parse_pragmas(source: str) -> tuple[dict[int, frozenset[str]], str | None]:
    """Raw per-line disabled-rule sets and the optional module override.

    The returned mapping is *unexpanded* — pass it through
    :func:`attach_pragmas` with the parsed tree to apply the
    statement-span semantics documented above.  A tokenize error ends
    the scan (the caller reports the syntax error itself).
    """
    disabled: dict[int, frozenset[str]] = {}
    module_override: str | None = None
    if "contracts:" not in source:
        return disabled, module_override
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            m = _PRAGMA_RE.search(tok.string)
            if not m:
                continue
            kind, value = m.group(1), m.group(2)
            if kind == "module":
                module_override = value.strip()
            else:
                line = tok.start[0]
                rules = frozenset(v.strip().upper() for v in value.split(","))
                disabled[line] = disabled.get(line, frozenset()) | rules
    except (tokenize.TokenError, SyntaxError):
        pass
    return disabled, module_override


def _statement_spans(tree: ast.AST) -> list[tuple[int, int, int]]:
    """``(attach_start, attach_end, suppress_end)`` per statement.

    ``attach_*`` bound the lines a pragma may sit on to claim the
    statement; ``suppress_end`` bounds the lines its suppression covers
    (always starting at ``attach_start``).
    """
    spans: list[tuple[int, int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        end = node.end_lineno
        start = node.lineno
        decorators = getattr(node, "decorator_list", [])
        if decorators:
            start = min(start, min(d.lineno for d in decorators))
        if isinstance(node, _DEFS):
            # attach on decorators/signature; suppress the whole body
            body = node.body
            header_end = body[0].lineno - 1 if body else end
            spans.append((start, header_end, end))
        elif isinstance(node, _COMPOUND):
            # attach on (possibly multi-line) header; suppress header only
            first = node.body[0].lineno if node.body else end + 1
            header_end = max(start, first - 1)
            spans.append((start, header_end, header_end))
        else:
            # simple statement: the whole extent is both attach and span
            spans.append((start, end, end))
    return spans


def attach_pragmas(tree: ast.AST, raw: dict[int, frozenset[str]]) -> list[Pragma]:
    """Attach raw pragma lines to the statements carrying them.

    For each pragma line, the innermost statement whose *attach* region
    contains it claims the pragma, which then suppresses its rules over
    that statement's *suppress* span.  Unclaimed pragma lines keep
    line-local scope.
    """
    if not raw:
        return []
    spans = _statement_spans(tree)
    pragmas: list[Pragma] = []
    for line in sorted(raw):
        claimed = [s for s in spans if s[0] <= line <= s[1]]
        if not claimed:
            pragmas.append(Pragma(line, raw[line], line, line))
            continue
        # innermost claimant: latest start, then tightest suppression span
        start, _, sup_end = max(claimed, key=lambda s: (s[0], -(s[2] - s[0])))
        pragmas.append(Pragma(line, raw[line], start, sup_end))
    return pragmas
