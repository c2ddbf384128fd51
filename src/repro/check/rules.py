"""Domain rules RC004 and RC006: AST analysis of session discipline.

One in-order pass per function body collects the facts both rules
read — ``run_benchmark`` calls per session name, ``session.region``
and ``session.iteration`` calls and the ``with`` blocks around them —
plus every call site, which :mod:`repro.check.callgraph` resolves into
the edges the RC008 and RC1xx analyses walk.

Whether the charged counts cover the executed work is not a static
question here: the runtime sanitizer (:mod:`repro.check.sanitizer`)
audits every benchmark against committed tallies in tier-1.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.check.findings import Finding


@dataclass
class _Site:
    """One evidence site inside a function."""

    line: int
    col: int


@dataclass
class RawCall:
    """One call site, recorded for the call graph.

    ``recv``/``name`` are the :func:`_call_name` decomposition.  The
    AST nodes are kept so :mod:`repro.check.callgraph` can resolve deep
    attribute chains and keyword arguments.
    """

    recv: Optional[str]
    name: Optional[str]
    line: int
    col: int
    func: ast.expr
    call: ast.Call


@dataclass
class FunctionFacts:
    """Everything the rules need to know about one function body."""

    symbol: str
    line: int
    region_calls: List[_Site] = field(default_factory=list)
    with_region_calls: int = 0
    span_calls: List[_Site] = field(default_factory=list)
    unscoped_iteration_sites: List[_Site] = field(default_factory=list)
    session_reuse_sites: List[Tuple[str, _Site]] = field(
        default_factory=list
    )
    #: every call site, for the call graph
    calls: List[RawCall] = field(default_factory=list)


def _call_name(func: ast.expr) -> Tuple[Optional[str], Optional[str]]:
    """Resolve a call target to ``(module_or_receiver, name)``.

    ``np.sqrt`` -> ("np", "sqrt"); ``sqrt`` -> (None, "sqrt");
    ``x.sqrt`` -> ("<attr>", "sqrt"); ``np.fft.fft`` -> ("np.fft", "fft").
    """
    if isinstance(func, ast.Name):
        return None, func.id
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name):
            return value.id, func.attr
        if isinstance(value, ast.Attribute) and isinstance(
            value.value, ast.Name
        ):
            return f"{value.value.id}.{value.attr}", func.attr
        return "<attr>", func.attr
    return None, None


class _FunctionScanner(ast.NodeVisitor):
    """Single in-order pass over one function body.

    Loop bodies are scanned twice, so a session handed to
    ``run_benchmark`` on one trip is seen as reused by the next unless
    the body rebinds it first (evidence sites are deduplicated by
    position).
    """

    def __init__(self, facts: FunctionFacts) -> None:
        self.facts = facts
        self._seen_sites: Set[Tuple[int, int, str]] = set()
        self._with_depth_calls: Set[int] = set()
        #: nesting depth of 'with session.region(...)' blocks at the
        #: current traversal point (RC006 scoping)
        self._region_depth = 0
        #: session names already passed to run_benchmark and not
        #: reassigned since (reassignment = a fresh session)
        self._sessions_used: Set[str] = set()
        #: call sites keyed by AST node identity (nested calls like
        #: ``self._ensure().submit(...)`` share a position, so position
        #: keys would collapse them); the loop double-scan revisits the
        #: same node objects
        self._raw_calls: Dict[int, RawCall] = {}

    def _add_site(
        self, bucket: List[_Site], node: ast.AST, detail: str
    ) -> None:
        key = (node.lineno, node.col_offset, detail)
        if key in self._seen_sites:
            return
        self._seen_sites.add(key)
        bucket.append(_Site(node.lineno, node.col_offset))

    # -- statements ------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested functions get their own scan

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]

    def _reset_sessions(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self._sessions_used.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._reset_sessions(elt)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for t in node.targets:
            self._reset_sessions(t)
            self.visit(t)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._reset_sessions(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        for _ in range(2):  # the second trip sees the first's sessions
            for stmt in node.body:
                self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        for _ in range(2):
            for stmt in node.body:
                self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_With(self, node: ast.With) -> None:
        opens_region = False
        for item in node.items:
            ctx = item.context_expr
            if isinstance(ctx, ast.Call):
                recv, name = _call_name(ctx.func)
                if name == "region":
                    self.facts.with_region_calls += 1
                    self._with_depth_calls.add(id(ctx))
                    opens_region = True
                elif name == "iteration" and recv is not None:
                    self._with_depth_calls.add(id(ctx))
                    if self._region_depth == 0:
                        self._add_site(
                            self.facts.unscoped_iteration_sites,
                            ctx,
                            "with iteration",
                        )
            self.visit(ctx)
            if item.optional_vars is not None:
                self._reset_sessions(item.optional_vars)
        if opens_region:
            self._region_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if opens_region:
            self._region_depth -= 1

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_Return(self, node: ast.Return) -> None:
        # Returning a span context manager is a pass-through (the
        # caller enters it), not a dangling span.
        value = node.value
        if isinstance(value, ast.Call):
            recv, name = _call_name(value.func)
            if name == "iteration" and recv is not None:
                self._with_depth_calls.add(id(value))
        self.generic_visit(node)

    # -- expressions -----------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        recv, name = _call_name(node.func)
        self._raw_calls.setdefault(id(node), RawCall(
            recv, name, node.lineno, node.col_offset, node.func, node,
        ))
        if name == "region" and recv is not None:
            if id(node) not in self._with_depth_calls:
                self._add_site(self.facts.region_calls, node, "region")
        elif name == "iteration" and recv is not None:
            if id(node) not in self._with_depth_calls:
                self._add_site(self.facts.span_calls, node, "iteration")
        elif name == "run_benchmark":
            self._note_run(node)
        self.generic_visit(node)

    def _note_run(self, node: ast.Call) -> None:
        session_arg = None
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Name):
            session_arg = node.args[1].id
        for k in node.keywords:
            if k.arg == "session" and isinstance(k.value, ast.Name):
                session_arg = k.value.id
        if not session_arg:
            return
        if session_arg in self._sessions_used:
            key = (node.lineno, node.col_offset, "reuse")
            if key not in self._seen_sites:
                self._seen_sites.add(key)
                self.facts.session_reuse_sites.append(
                    (session_arg, _Site(node.lineno, node.col_offset))
                )
        self._sessions_used.add(session_arg)


def scan_function(node: ast.AST, symbol: str) -> FunctionFacts:
    """Analyze one function (or module) body and return its facts."""
    facts = FunctionFacts(symbol=symbol, line=getattr(node, "lineno", 1))
    scanner = _FunctionScanner(facts)
    body = node.body if hasattr(node, "body") else [node]
    for stmt in body:
        scanner.visit(stmt)
    facts.calls = list(scanner._raw_calls.values())
    return facts


# ----------------------------------------------------------------------
# Rule emitters
# ----------------------------------------------------------------------
def rc004_session_misuse(facts: FunctionFacts, path: str) -> List[Finding]:
    """RC004: reused sessions and dangling regions."""
    out: List[Finding] = []
    for session_name, site in facts.session_reuse_sites:
        out.append(
            Finding(
                code="RC004",
                path=path,
                line=site.line,
                col=site.col,
                symbol=facts.symbol,
                message=(
                    f"session {session_name!r} passed to run_benchmark "
                    "more than once without reassignment; reports "
                    "require a fresh session per run (the runner raises "
                    "on recorded activity)"
                ),
            )
        )
    for site in facts.region_calls:
        out.append(
            Finding(
                code="RC004",
                path=path,
                line=site.line,
                col=site.col,
                symbol=facts.symbol,
                message=(
                    "session.region(...) called outside a 'with' "
                    "statement: the region is never entered or closed, so "
                    "charges land in the parent region"
                ),
            )
        )
    return out


def rc006_dangling_spans(facts: FunctionFacts, path: str) -> List[Finding]:
    """RC006: obs span APIs used where no span can open or close.

    Two shapes are flagged:

    * ``session.iteration(...)`` called but not entered with ``with``
      (and not returned to a caller who will enter it) — the context
      manager is created and dropped, so no span opens;
    * ``with session.iteration(...)`` outside any ``with
      session.region(...)`` block in a function that opens regions of
      its own — the marker lands in whatever region the *caller* left
      current, which is almost never the intent.  Helper functions that
      open no regions are exempt: their caller owns the region scope
      (e.g. a per-stage FFT sweep invoked under ``main_loop``).
    """
    out: List[Finding] = []
    for site in facts.span_calls:
        out.append(
            Finding(
                code="RC006",
                path=path,
                line=site.line,
                col=site.col,
                symbol=facts.symbol,
                message=(
                    "session.iteration(...) called outside a 'with' "
                    "statement: the span context manager is never "
                    "entered, so no iteration span opens — write "
                    "'with session.iteration(i):' around the loop body"
                ),
            )
        )
    if facts.with_region_calls:
        for site in facts.unscoped_iteration_sites:
            out.append(
                Finding(
                    code="RC006",
                    path=path,
                    line=site.line,
                    col=site.col,
                    symbol=facts.symbol,
                    message=(
                        "'with session.iteration(...)' opened outside "
                        "any 'with session.region(...)' block although "
                        "this function manages its own regions; the "
                        "iteration span attaches to the caller's "
                        "current region — move the marker inside the "
                        "region block it annotates"
                    ),
                )
            )
    return out


def apply_rules(facts: FunctionFacts, path: str) -> List[Finding]:
    """Run every per-function rule over one function's facts."""
    return rc004_session_misuse(facts, path) + rc006_dangling_spans(
        facts, path
    )
