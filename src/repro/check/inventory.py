"""RC008: static communication-pattern conformance for the apps.

Table 7 of the paper characterizes every application by its
communication-pattern inventory, and the registry carries that
declaration (`BenchmarkSpec.comm_patterns`, plus the documented
implementation-level `comm_extras` — stencils composed from
primitives, FFT-internal motions, solver substrates).  The runtime
table test (`benchmarks/test_table7_app_comm.py`) checks the measured
inventory at one parameter point; this rule checks the *code*: the
set of `CommPattern` values reachable from each app's runner through
the call graph must match what the registry declares.

* a pattern recorded on some reachable path but absent from
  ``comm_patterns`` and ``comm_extras`` is **used-but-undeclared**
  (the paper table under-describes the implementation);
* a declared pattern that no reachable ``record_comm`` can ever emit
  is **declared-but-unused** (the implementation under-delivers the
  paper table).

Extraction distinguishes *must* evidence (a literal ``CommPattern.X``
first argument / ``pattern=`` keyword of ``record_comm``, or a literal
pattern argument handed to a resolved callee) from *may* evidence
(``CommPattern.X`` mentioned in a function that records through a
variable, e.g. ``scatter``'s combine-dependent choice).  Undeclared
findings require must evidence; unused findings accept may evidence —
both directions err toward precision.

The closure is fenced to the benchmark-implementation layers
(``repro.apps``/``comm``/``linalg``/``array``/``workloads``) so
literal pattern mentions in pricing tables or docs generators never
leak into an app's inventory.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.check.callgraph import CallGraph, FunctionNode
from repro.check.findings import Finding
from repro.check.rules import _call_name

#: module prefixes traversed by the inventory closure
CLOSURE_PREFIXES = (
    "repro.apps",
    "repro.comm",
    "repro.linalg",
    "repro.array",
    "repro.workloads",
)


@dataclass(frozen=True)
class AppInventory:
    """One app's declared inventory, decoupled from the live registry."""

    name: str
    runner_module: str
    runner_name: str
    declared: frozenset  # of pattern names (Table 7)
    extras: frozenset    # documented implementation-level extras


def registry_inventories() -> List[AppInventory]:
    """Declared inventories of every app benchmark in the registry."""
    from repro.suite.registry import REGISTRY

    out: List[AppInventory] = []
    for name, spec in REGISTRY.items():
        if spec.group != "app":
            continue
        out.append(AppInventory(
            name=name,
            runner_module=spec.runner.__module__,
            runner_name=spec.runner.__name__,
            declared=frozenset(p.name for p in spec.comm_patterns),
            extras=frozenset(p.name for p in spec.comm_extras),
        ))
    return out


def _pattern_attr(expr: ast.expr) -> Optional[str]:
    """``CommPattern.X`` -> ``"X"``."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "CommPattern"
    ):
        return expr.attr
    return None


@dataclass
class _FnPatterns:
    must: Set[str]
    may: Set[str]


def _own_nodes(fn: FunctionNode):
    """The function's own AST nodes, nested defs excluded.

    Parameter defaults are included: ``def stencil_shifts(...,
    pattern=CommPattern.STENCIL)`` recording through ``pattern`` emits
    its default unless a caller overrides it — may evidence.
    """
    stack = list(getattr(fn.node, "body", []))
    args = getattr(fn.node, "args", None)
    if args is not None:
        stack.extend(d for d in args.defaults if d is not None)
        stack.extend(d for d in args.kw_defaults if d is not None)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            stack.append(child)


def _extract(fn: FunctionNode) -> _FnPatterns:
    """Direct pattern evidence of one function."""
    must: Set[str] = set()
    may: Set[str] = set()
    records_via_var = False
    for node in _own_nodes(fn):
        if not isinstance(node, ast.Call):
            continue
        _, name = _call_name(node.func)
        if name == "record_comm":
            arg: Optional[ast.expr] = node.args[0] if node.args else None
            for kw in node.keywords:
                if kw.arg == "pattern":
                    arg = kw.value
            p = _pattern_attr(arg) if arg is not None else None
            if p:
                must.add(p)
            else:
                records_via_var = True
        else:
            # a literal pattern handed to a helper that records it
            for arg in list(node.args) + [
                kw.value for kw in node.keywords
            ]:
                p = _pattern_attr(arg)
                if p:
                    must.add(p)
    if records_via_var:
        # the recorded pattern is a variable (parameter, conditional
        # choice): every CommPattern mention in the body is possible
        for node in _own_nodes(fn):
            if isinstance(node, ast.Attribute):
                p = _pattern_attr(node)
                if p:
                    may.add(p)
    return _FnPatterns(must=must, may=may - must)


def _in_closure(module: str, runner_module: str) -> bool:
    return module == runner_module or module.startswith(CLOSURE_PREFIXES)


def closure_patterns(
    graph: CallGraph,
    runner_qualname: str,
    *,
    cache: Optional[Dict[str, _FnPatterns]] = None,
) -> Tuple[Set[str], Set[str], Dict[str, str]]:
    """``(must, may, origin)`` pattern sets reachable from a runner."""
    if cache is None:
        cache = {}
    runner = graph.functions.get(runner_qualname)
    if runner is None:
        return set(), set(), {}
    runner_module = runner.module
    must: Set[str] = set()
    may: Set[str] = set()
    origin: Dict[str, str] = {}
    seen: Set[str] = set()
    stack = [runner_qualname]
    while stack:
        qn = stack.pop()
        if qn in seen:
            continue
        seen.add(qn)
        fn = graph.functions.get(qn)
        if fn is None or not _in_closure(fn.module, runner_module):
            continue
        pats = cache.get(qn)
        if pats is None:
            pats = _extract(fn)
            cache[qn] = pats
        for p in pats.must:
            must.add(p)
            origin.setdefault(p, qn)
        for p in pats.may:
            may.add(p)
            origin.setdefault(p, qn)
        for edge in fn.resolved:
            stack.append(edge.target)
    return must, may, origin


def inventory_findings(
    graph: CallGraph,
    inventories: Optional[Sequence[AppInventory]] = None,
) -> List[Finding]:
    """RC008 findings for every app whose runner is in the graph.

    ``inventories`` defaults to the live registry; tests pass
    hand-built :class:`AppInventory` rows against fixture modules.
    """
    if inventories is None:
        try:
            inventories = registry_inventories()
        except Exception:
            return []  # registry not importable in this lint scope
    out: List[Finding] = []
    cache: Dict[str, _FnPatterns] = {}
    for inv in inventories:
        mod = graph.modules.get(inv.runner_module)
        if mod is None or inv.runner_name not in mod.functions:
            continue
        runner = mod.functions[inv.runner_name]
        must, may, origin = closure_patterns(
            graph, runner.qualname, cache=cache
        )
        declared_all = inv.declared | inv.extras
        for p in sorted(must - declared_all):
            where = origin.get(p, runner.qualname).replace(":", "::")
            out.append(Finding(
                code="RC008",
                path=runner.path,
                line=runner.facts.line,
                col=0,
                symbol=runner.symbol,
                message=(
                    f"benchmark {inv.name!r} records CommPattern.{p} "
                    f"(reachable via {where}) but the registry "
                    "declares neither comm_patterns nor comm_extras "
                    "for it — update the spec or remove the record"
                ),
            ))
        for p in sorted(inv.declared - (must | may)):
            out.append(Finding(
                code="RC008",
                path=runner.path,
                line=runner.facts.line,
                col=0,
                symbol=runner.symbol,
                message=(
                    f"benchmark {inv.name!r} declares CommPattern.{p} "
                    "in its registry comm_patterns but no reachable "
                    "record_comm can emit it — the implementation "
                    "under-delivers the declared Table-7 inventory"
                ),
            ))
    out.sort(key=lambda f: (f.path, f.line, f.col, f.message))
    return out
