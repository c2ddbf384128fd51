"""Domain rules RC001-RC006: AST analysis of accounting discipline.

The linter reasons about *payload taint*: expressions derived from a
``DistArray.data`` attribute are raw NumPy payloads of distributed
arrays.  Arithmetic on tainted values executes data-parallel FLOPs
that the DPF conventions (paper §1.5) require a matching
``session.charge_*`` call for; movement of tainted values (roll,
transpose, take, ...) requires a ``record_comm``.  Operating through
``DistArray`` operators, the fused kernels or the collective library
is always safe — those layers charge internally — so only raw-payload
escapes are flagged.

Deliberately *not* tainted:

* function parameters — helpers receiving plain arrays (stencil
  shifters, interaction kernels) are charged by their callers;
* the ``DistArray.np`` accessor — the sanctioned verification window,
  exempt from accounting by design;
* shape/dtype-style attributes — index arithmetic is not FLOPs.

This trades recall for precision: a rule that cries wolf on every
verification helper would be baselined into silence.  The runtime
sanitizer (:mod:`repro.check.sanitizer`) covers the complement.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.check.findings import Finding

#: Module aliases recognized as NumPy.
NP_MODULES = {"np", "numpy"}

#: NumPy call names that execute floating-point arithmetic, mapped to
#: the FlopKind name the DPF convention charges them under.
NP_ARITH: Dict[str, str] = {
    "add": "ADD",
    "subtract": "SUB",
    "multiply": "MUL",
    "divide": "DIV",
    "true_divide": "DIV",
    "floor_divide": "DIV",
    "reciprocal": "DIV",
    "sqrt": "SQRT",
    "cbrt": "SQRT",
    "exp": "EXP",
    "expm1": "EXP",
    "exp2": "EXP",
    "log": "LOG",
    "log2": "LOG",
    "log10": "LOG",
    "log1p": "LOG",
    "sin": "TRIG",
    "cos": "TRIG",
    "tan": "TRIG",
    "arcsin": "TRIG",
    "arccos": "TRIG",
    "arctan": "TRIG",
    "arctan2": "TRIG",
    "sinh": "TRIG",
    "cosh": "TRIG",
    "tanh": "TRIG",
    "hypot": "TRIG",
    "power": "POW",
    "float_power": "POW",
    "square": "MUL",
    "negative": "SUB",
    "absolute": "ABS",
    "abs": "ABS",
    "fabs": "ABS",
    "conj": "SUB",
    "conjugate": "SUB",
    "maximum": "COMPARE",
    "minimum": "COMPARE",
}

#: BinOp/AugAssign operator -> FlopKind name.
BINOP_KINDS = {
    ast.Add: "ADD",
    ast.Sub: "SUB",
    ast.Mult: "MUL",
    ast.Div: "DIV",
    ast.FloorDiv: "DIV",
    ast.MatMult: "MUL",
}

#: The 4x/8x-weighted kinds of the paper's FLOP convention; using one
#: without charging it is RC002.
SPECIAL_KINDS = {"DIV", "SQRT", "EXP", "LOG", "TRIG", "POW"}

#: NumPy data-movement calls (RC003).
NP_MOVEMENT = {
    "roll",
    "transpose",
    "swapaxes",
    "moveaxis",
    "rollaxis",
    "take",
    "put",
    "take_along_axis",
    "put_along_axis",
    # joining shards is movement too, and the runtime sanitizer
    # counts it as such
    "concatenate",
}

#: Bare-name movement helpers that do *not* charge internally
#: (``repro.array.roll.fast_roll`` is a speed substitute for
#: ``np.roll`` — same movement, still needs a record_comm in scope).
MOVEMENT_FUNCS = {"fast_roll"}

#: Reduction-style methods; on a tainted (raw payload) receiver they
#: execute uncharged work.
RAW_REDUCTION_METHODS = {"sum", "prod", "mean", "cumsum", "cumprod", "dot"}

#: Session/recorder methods that charge FLOPs.
CHARGE_METHODS = {
    "charge_elementwise",
    "charge_elementwise_seq",
    "charge_kernel",
    "charge_reduction_flops",
    "charge_flops",
    "charge_raw_flops",
    "charge_reduction",
}

#: Charges carrying pre-weighted totals (already include the 4x/8x
#: factors), which satisfy RC002 wholesale.
PREWEIGHTED_METHODS = {
    "charge_kernel",
    "charge_raw_flops",
    "charge_reduction_flops",
    "charge_reduction",
}

#: Library entry points that charge (FLOPs and/or comm) internally.
CHARGING_WRAPPERS = {
    "axpy",
    "fma",
    "scale_add",
    "linear_combine",
    "stencil_combine",
    "stencil_apply",
    "stencil_shifts",
    "cshift",
    "eoshift",
    "spread",
    "broadcast",
    "reduce_array",
    "reduce_location",
    "transpose",
    "remap",
    "send",
    "get",
    "gather",
    "scatter",
    "scan",
    "matvec",
    "pcr_solve",
    "sort_array",
    "rank_array",
    # repro.array.fused's internal charging helper: the public kernels
    # delegate all their charge_elementwise_seq calls to it.
    "_charge_steps",
}

#: DistArray elementwise intrinsics: calling one charges its kind.
DISTARRAY_KIND_METHODS = {
    "sqrt": "SQRT",
    "exp": "EXP",
    "log": "LOG",
    "sin": "TRIG",
    "cos": "TRIG",
    "abs": "ABS",
    "conj": "SUB",
}

#: Attributes that keep payload taint flowing (everything else —
#: .shape, .dtype, .size, .np ... — breaks the chain).
TAINT_ATTRS = {"data", "T", "real", "imag", "flat"}

#: Known charge sequences of the fused kernels (RC005), as FLOP-kind
#: multisets.  linear_combine is arity-dependent and handled in code.
FUSED_SEQUENCES: Dict[str, Dict[str, int]] = {
    "fma": {"MUL": 1, "ADD": 1},
    "scale_add": {"MUL": 2, "ADD": 1},
    "stencil_combine": {"MUL": 2, "SUB": 1, "ADD": 2},
}


@dataclass
class _Site:
    """One evidence site inside a function."""

    line: int
    col: int
    kind: Optional[str] = None
    detail: str = ""


@dataclass
class RawCall:
    """One call site, recorded for the interprocedural layer.

    ``recv``/``name`` are the :func:`_call_name` decomposition;
    ``args_tainted`` is whether any argument carried payload taint at
    the time of the call (under the scan's taint initialisation — the
    param-tainted scan reports a superset of the base scan).  The AST
    nodes are kept so :mod:`repro.check.callgraph` can resolve deep
    attribute chains and keyword arguments.
    """

    recv: Optional[str]
    name: Optional[str]
    line: int
    col: int
    args_tainted: bool
    func: ast.expr
    call: ast.Call


@dataclass
class FunctionFacts:
    """Everything the rules need to know about one function body."""

    symbol: str
    line: int
    compute_sites: List[_Site] = field(default_factory=list)
    movement_sites: List[_Site] = field(default_factory=list)
    charge_calls: Set[str] = field(default_factory=set)
    charged_kinds: Set[str] = field(default_factory=set)
    wrapper_calls: Set[str] = field(default_factory=set)
    has_record_comm: bool = False
    region_calls: List[_Site] = field(default_factory=list)
    with_region_calls: int = 0
    span_calls: List[_Site] = field(default_factory=list)
    unscoped_iteration_sites: List[_Site] = field(default_factory=list)
    session_reuse_sites: List[Tuple[str, _Site]] = field(
        default_factory=list
    )
    fused_calls: List[Tuple[str, ast.Call]] = field(default_factory=list)
    #: runs of >= 2 consecutive same-layout ``charge_elementwise``
    #: statements inside a loop body (RC007); detail carries the run
    #: length and layout expression
    hot_charge_runs: List[_Site] = field(default_factory=list)
    #: every call site, for the interprocedural layer
    calls: List[RawCall] = field(default_factory=list)

    # -- interprocedural annotations (filled by repro.check.callgraph;
    # -- defaults reproduce the per-function semantics exactly) --------
    #: a transitive callee charges FLOPs / records comm / calls a wrapper
    callee_charges_anything: bool = False
    #: a transitive callee charges FLOPs (RC002's gate)
    callee_charges_flops: bool = False
    #: FlopKinds charged by transitive callees (RC002's union)
    callee_charged_kinds: Set[str] = field(default_factory=set)
    #: a transitive callee records comm or calls a collective wrapper
    callee_records_comm: bool = False
    #: compute evidence flowing *through* calls: tainted args handed to
    #: a helper that computes on its parameters without charging
    call_compute_sites: List[_Site] = field(default_factory=list)
    #: movement evidence through calls (helper moves its parameters)
    call_movement_sites: List[_Site] = field(default_factory=list)

    @property
    def charges_flops(self) -> bool:
        return (
            bool(self.charge_calls)
            or bool(
                self.wrapper_calls
                & (CHARGING_WRAPPERS - {"cshift", "eoshift", "stencil_shifts"})
            )
            or self.callee_charges_flops
        )

    @property
    def charges_anything(self) -> bool:
        return (
            bool(self.charge_calls)
            or bool(self.wrapper_calls)
            or self.has_record_comm
            or self.callee_charges_anything
        )

    @property
    def preweighted(self) -> bool:
        return bool(self.charge_calls & PREWEIGHTED_METHODS)


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


def _nested_stmt_lists(stmt: ast.stmt) -> List[List[ast.stmt]]:
    """Statement lists nested directly inside ``stmt``, loops excluded.

    ``with``/``if``/``try`` blocks are transparent for RC007 — charges
    inside them still execute once per surrounding-loop iteration — but
    nested ``for``/``while`` bodies are not: those loops scan their own
    bodies when visited.
    """
    if isinstance(stmt, (ast.For, ast.While, ast.AsyncFor)):
        return []
    lists: List[List[ast.stmt]] = []
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if isinstance(block, list) and block and isinstance(
            block[0], ast.stmt
        ):
            lists.append(block)
    for handler in getattr(stmt, "handlers", []):
        lists.append(handler.body)
    return lists


class _FunctionScanner(ast.NodeVisitor):
    """Single in-order pass over one function body.

    Maintains the set of tainted (raw-payload-derived) names; loops are
    scanned twice so taint introduced late in a loop body reaches uses
    at its top on the second pass (evidence sites are deduplicated by
    position).
    """

    def __init__(self, facts: FunctionFacts) -> None:
        self.facts = facts
        self.tainted: Set[str] = set()
        self._seen_sites: Set[Tuple[int, int, str]] = set()
        self._with_depth_calls: Set[int] = set()
        #: nesting depth of 'with session.region(...)' blocks at the
        #: current traversal point (RC006 scoping)
        self._region_depth = 0
        self._fused_seen: Set[int] = set()
        #: session names already passed to run_benchmark and not
        #: reassigned since (reassignment = a fresh session)
        self._sessions_used: Set[str] = set()
        #: call sites keyed by AST node identity (nested calls like
        #: ``self._ensure().submit(...)`` share a position, so position
        #: keys would collapse them); the loop double-scan revisits the
        #: same node objects, and args_tainted is OR-merged then
        self._raw_calls: Dict[int, RawCall] = {}

    # -- taint ----------------------------------------------------------
    def _is_tainted(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Attribute):
            if node.attr == "data":
                return True
            if node.attr in TAINT_ATTRS:
                return self._is_tainted(node.value)
            return False
        if isinstance(node, ast.Subscript):
            return self._is_tainted(node.value)
        if isinstance(node, ast.BinOp):
            return self._is_tainted(node.left) or self._is_tainted(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._is_tainted(node.operand)
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self._is_tainted(e) for e in node.elts)
        if isinstance(node, ast.IfExp):
            return self._is_tainted(node.body) or self._is_tainted(node.orelse)
        if isinstance(node, ast.Starred):
            return self._is_tainted(node.value)
        if isinstance(node, ast.Call):
            recv, name = _call_name(node.func)
            args_tainted = any(self._is_tainted(a) for a in node.args) or any(
                self._is_tainted(k.value) for k in node.keywords
            )
            if recv in NP_MODULES and args_tainted:
                return True
            if recv == "<attr>" or (recv and recv not in NP_MODULES):
                # method call: taint flows through payload methods
                if name in {"copy", "astype", "view", "reshape", "ravel"}:
                    return self._is_tainted(node.func.value)  # type: ignore[attr-defined]
            return False
        return False

    def _taint_targets(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.tainted.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._taint_targets(elt)

    def _untaint_targets(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.tainted.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._untaint_targets(elt)

    # -- evidence recording ---------------------------------------------
    def _add_site(
        self,
        bucket: List[_Site],
        node: ast.AST,
        kind: Optional[str],
        detail: str = "",
    ) -> None:
        key = (node.lineno, node.col_offset, detail or (kind or ""))
        if key in self._seen_sites:
            return
        self._seen_sites.add(key)
        bucket.append(_Site(node.lineno, node.col_offset, kind, detail))

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
        if self._is_tainted(node.value):
            for t in node.targets:
                self._taint_targets(t)
        else:
            for t in node.targets:
                if isinstance(t, ast.Name):
                    self._untaint_targets(t)
        for t in node.targets:
            if not isinstance(t, ast.Name):
                self.visit(t)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._reset_sessions(node.target)
        if node.value is not None:
            self.visit(node.value)
            if self._is_tainted(node.value):
                self._taint_targets(node.target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        kind = BINOP_KINDS.get(type(node.op))
        if kind and (
            self._is_tainted(node.target) or self._is_tainted(node.value)
        ):
            self._add_site(
                self.facts.compute_sites, node, kind, f"augmented {kind}"
            )
            self._taint_targets(node.target)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        if self._is_tainted(node.iter):
            self._taint_targets(node.target)
        self._scan_charge_runs(node.body)
        for _ in range(2):  # second pass propagates loop-carried taint
            for stmt in node.body:
                self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._scan_charge_runs(node.body)
        for _ in range(2):
            for stmt in node.body:
                self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    def _scan_charge_runs(self, body: List[ast.stmt]) -> None:
        """RC007 evidence: consecutive same-layout charges in a loop.

        Walks the loop's statement lists (descending into ``with``/
        ``if``/``try`` blocks, but not into nested loops — those scan
        their own bodies) looking for runs of two or more adjacent
        ``*.charge_elementwise(kind, layout, ...)`` statements whose
        layout expressions match textually.
        """
        run_layout: Optional[str] = None
        run_len = 0
        run_first: Optional[ast.stmt] = None

        def close_run() -> None:
            nonlocal run_layout, run_len, run_first
            if run_len >= 2 and run_first is not None:
                self._add_site(
                    self.facts.hot_charge_runs,
                    run_first,
                    None,
                    f"{run_len} consecutive charge_elementwise calls "
                    f"on {run_layout}",
                )
            run_layout = None
            run_len = 0
            run_first = None

        for stmt in body:
            layout_src = self._charge_stmt_layout(stmt)
            if layout_src is not None:
                if layout_src == run_layout:
                    run_len += 1
                else:
                    close_run()
                    run_layout = layout_src
                    run_len = 1
                    run_first = stmt
                continue
            close_run()
            for inner in _nested_stmt_lists(stmt):
                self._scan_charge_runs(inner)
        close_run()

    @staticmethod
    def _charge_stmt_layout(stmt: ast.stmt) -> Optional[str]:
        """Layout-expression source if ``stmt`` is a bare charge call."""
        if not isinstance(stmt, ast.Expr) or not isinstance(
            stmt.value, ast.Call
        ):
            return None
        recv, name = _call_name(stmt.value.func)
        if recv is None or name != "charge_elementwise":
            return None
        call = stmt.value
        layout_node: Optional[ast.expr] = None
        if len(call.args) >= 2:
            layout_node = call.args[1]
        else:
            for kw in call.keywords:
                if kw.arg == "layout":
                    layout_node = kw.value
        if layout_node is None:
            return None
        return ast.unparse(layout_node)

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
                            None,
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
    def visit_BinOp(self, node: ast.BinOp) -> None:
        kind = BINOP_KINDS.get(type(node.op))
        if kind is None and isinstance(node.op, ast.Pow):
            kind = "POW"
            if isinstance(node.right, ast.Constant) and node.right.value == 2:
                kind = "MUL"  # x**2 compiles to a multiply
        if kind and (
            self._is_tainted(node.left) or self._is_tainted(node.right)
        ):
            self._add_site(
                self.facts.compute_sites, node, kind, f"operator {kind}"
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        recv, name = _call_name(node.func)
        args = list(node.args) + [k.value for k in node.keywords]
        args_tainted = any(self._is_tainted(a) for a in args)

        key = id(node)
        prior = self._raw_calls.get(key)
        if prior is None:
            self._raw_calls[key] = RawCall(
                recv, name, node.lineno, node.col_offset,
                args_tainted, node.func, node,
            )
        elif args_tainted and not prior.args_tainted:
            prior.args_tainted = True

        if recv in NP_MODULES and name is not None:
            if name in NP_ARITH and args_tainted:
                self._add_site(
                    self.facts.compute_sites,
                    node,
                    NP_ARITH[name],
                    f"np.{name}",
                )
            if name in NP_MOVEMENT and args_tainted:
                self._add_site(
                    self.facts.movement_sites, node, None, f"np.{name}"
                )
        elif name is not None:
            if name in CHARGE_METHODS and recv is not None:
                self.facts.charge_calls.add(name)
            elif name == "record_comm":
                self.facts.has_record_comm = True
            elif name == "region" and recv is not None:
                if id(node) not in self._with_depth_calls:
                    self._add_site(
                        self.facts.region_calls, node, None, "region"
                    )
            elif name == "iteration" and recv is not None:
                if id(node) not in self._with_depth_calls:
                    self._add_site(
                        self.facts.span_calls, node, None, "iteration"
                    )
            elif name == "run_benchmark":
                session_arg = None
                if len(node.args) >= 2 and isinstance(node.args[1], ast.Name):
                    session_arg = node.args[1].id
                for k in node.keywords:
                    if k.arg == "session" and isinstance(k.value, ast.Name):
                        session_arg = k.value.id
                if session_arg:
                    if session_arg in self._sessions_used:
                        key = (node.lineno, node.col_offset, "reuse")
                        if key not in self._seen_sites:
                            self._seen_sites.add(key)
                            self.facts.session_reuse_sites.append(
                                (
                                    session_arg,
                                    _Site(node.lineno, node.col_offset),
                                )
                            )
                    self._sessions_used.add(session_arg)
            elif name in MOVEMENT_FUNCS and recv is None and args_tainted:
                # fast_roll et al. move payloads without charging — the
                # runtime sanitizer counts them, so must the lint
                self._add_site(
                    self.facts.movement_sites, node, None, f"{name}()"
                )
            elif name in CHARGING_WRAPPERS and recv is None:
                self.facts.wrapper_calls.add(name)
            elif recv is not None and recv not in NP_MODULES:
                if name in DISTARRAY_KIND_METHODS and not self._is_tainted(
                    getattr(node.func, "value", node.func)
                ):
                    # DistArray intrinsic: charges its kind internally.
                    self.facts.charged_kinds.add(DISTARRAY_KIND_METHODS[name])
                    self.facts.wrapper_calls.add(f".{name}")
                elif name in DISTARRAY_KIND_METHODS and self._is_tainted(
                    getattr(node.func, "value", node.func)
                ):
                    self._add_site(
                        self.facts.compute_sites,
                        node,
                        DISTARRAY_KIND_METHODS[name].upper(),
                        f"payload .{name}()",
                    )
                elif name in RAW_REDUCTION_METHODS and self._is_tainted(
                    getattr(node.func, "value", node.func)
                ):
                    self._add_site(
                        self.facts.compute_sites,
                        node,
                        None,
                        f"payload .{name}()",
                    )
                elif name in NP_MOVEMENT and self._is_tainted(
                    getattr(node.func, "value", node.func)
                ):
                    self._add_site(
                        self.facts.movement_sites, node, None, f".{name}()"
                    )

        if name in FUSED_SEQUENCES or name in ("axpy", "linear_combine"):
            if id(node) not in self._fused_seen:
                self._fused_seen.add(id(node))
                self.facts.fused_calls.append((name, node))

        # FlopKind.X mentions count as charged kinds.
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        pass

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id == "FlopKind":
                self.facts.charged_kinds.add(node.attr)
        super().generic_visit(node)


def _collect_flopkind_mentions(tree: ast.AST, facts: FunctionFacts) -> None:
    """Record every ``FlopKind.X`` mention as a charged kind."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "FlopKind"
        ):
            facts.charged_kinds.add(node.attr)


def scan_function(
    node: ast.AST, symbol: str, *, params: Sequence[str] = ()
) -> FunctionFacts:
    """Analyze one function (or module) body and return its facts.

    ``params`` pre-taints the named parameters: the interprocedural
    layer uses a second scan with every parameter tainted to learn
    whether a helper computes on (or moves) what its callers hand it.
    """
    facts = FunctionFacts(symbol=symbol, line=getattr(node, "lineno", 1))
    scanner = _FunctionScanner(facts)
    scanner.tainted.update(params)
    body = node.body if hasattr(node, "body") else [node]
    for stmt in body:
        scanner.visit(stmt)
    facts.calls = list(scanner._raw_calls.values())
    _collect_flopkind_mentions(node, facts)
    return facts


# ----------------------------------------------------------------------
# Rule emitters
# ----------------------------------------------------------------------
def rc001_uncharged_compute(facts: FunctionFacts, path: str) -> List[Finding]:
    """RC001: payload arithmetic in a function that charges nothing.

    Evidence is the function's own tainted-compute sites plus (in
    interprocedural mode) call sites where tainted data is handed to a
    helper that computes on its parameters without charging; the charge
    scope silencing the rule is likewise the function *and* every
    transitive callee.
    """
    sites = facts.compute_sites + facts.call_compute_sites
    if not sites or facts.charges_anything:
        return []
    if "reference" in facts.symbol.rsplit(".", 1)[-1]:
        return []
    first = min(sites, key=lambda s: (s.line, s.col))
    n = len(sites)
    return [
        Finding(
            code="RC001",
            path=path,
            line=first.line,
            col=first.col,
            symbol=facts.symbol,
            message=(
                "numpy arithmetic on distributed payload data "
                f"({first.detail}; {n} site(s)) but the function charges "
                "no FLOPs and records no communication — add "
                "session.charge_* calls or route through DistArray/"
                "repro.array.fused"
            ),
        )
    ]


def rc002_kind_mismatch(facts: FunctionFacts, path: str) -> List[Finding]:
    """RC002: a 4x/8x-weighted operation with no charge of that kind."""
    if not facts.charges_flops or facts.preweighted:
        return []
    if "reference" in facts.symbol.rsplit(".", 1)[-1]:
        return []
    out: List[Finding] = []
    seen: Set[str] = set()
    for site in facts.compute_sites + facts.call_compute_sites:
        kind = site.kind
        if kind is None or kind not in SPECIAL_KINDS or kind in seen:
            continue
        if kind in facts.charged_kinds or kind in facts.callee_charged_kinds:
            continue
        seen.add(kind)
        out.append(
            Finding(
                code="RC002",
                path=path,
                line=site.line,
                col=site.col,
                symbol=facts.symbol,
                message=(
                    f"{site.detail} executes a {kind} "
                    f"({'4x' if kind in ('DIV', 'SQRT') else '8x'}-weighted "
                    "under the paper's FLOP convention) but no "
                    f"FlopKind.{kind} charge appears in this function"
                ),
            )
        )
    return out


def rc003_comm_without_record(
    facts: FunctionFacts, path: str
) -> List[Finding]:
    """RC003: payload data movement with no communication record."""
    sites = facts.movement_sites + facts.call_movement_sites
    if not sites:
        return []
    if (
        facts.has_record_comm
        or facts.wrapper_calls
        or facts.callee_records_comm
    ):
        return []
    if "reference" in facts.symbol.rsplit(".", 1)[-1]:
        return []
    first = min(sites, key=lambda s: (s.line, s.col))
    return [
        Finding(
            code="RC003",
            path=path,
            line=first.line,
            col=first.col,
            symbol=facts.symbol,
            message=(
                f"{first.detail} moves distributed payload data "
                f"({len(sites)} site(s)) but the function "
                "records no communication — call session.record_comm or "
                "use the collective library (cshift/transpose/...)"
            ),
        )
    ]


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


# -- RC005: fused-kernel parity ----------------------------------------
def _comment_for_call(
    call: ast.Call, source_lines: Sequence[str]
) -> Optional[str]:
    """The documenting comment of a fused call: same line, else above."""
    lineno = call.lineno
    line = source_lines[lineno - 1] if lineno - 1 < len(source_lines) else ""
    if "#" in line:
        return line.split("#", 1)[1].strip()
    for back in (2, 3):
        idx = lineno - back
        if idx < 0 or idx >= len(source_lines):
            break
        stripped = source_lines[idx].strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            return stripped.lstrip("#").strip()
        break
    return None


def _ops_from_comment(text: str) -> Optional[Counter]:
    """FLOP-kind multiset of the expression documented in a comment.

    Handles ``name = expr``, ``name += expr`` / ``-=`` (the augmented
    operator contributes its ADD/SUB), and trailing prose after a comma
    (stripped progressively until the expression parses).
    """
    extra: Counter = Counter()
    for aug, kind in (("+=", "ADD"), ("-=", "SUB"), ("*=", "MUL")):
        if aug in text:
            text = text.split(aug, 1)[1]
            extra[kind] += 1
            break
    else:
        if "=" in text and "==" not in text:
            text = text.split("=", 1)[1]
    text = text.strip()
    tree = None
    for _ in range(4):
        try:
            tree = ast.parse(text, mode="eval")
            break
        except SyntaxError:
            if "," not in text:
                return None
            text = text.rsplit(",", 1)[0].strip()
    if tree is None:
        return None
    ops: Counter = Counter(extra)
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                if (
                    isinstance(node.right, ast.Constant)
                    and node.right.value == 2
                ):
                    ops["MUL"] += 1
                else:
                    ops["POW"] += 1
                continue
            kind = BINOP_KINDS.get(type(node.op))
            if kind:
                ops[kind] += 1
    if sum(ops.values()) == 0:
        return None
    return ops


def _expected_fused_ops(name: str, call: ast.Call) -> Optional[Counter]:
    """Charged FLOP-kind multiset of one fused-kernel call."""
    if name == "axpy":
        subtract = False
        for kw in call.keywords:
            if kw.arg == "subtract":
                if not isinstance(kw.value, ast.Constant):
                    return None  # dynamic flag: cannot check statically
                subtract = bool(kw.value.value)
        return Counter({"MUL": 1, "SUB" if subtract else "ADD": 1})
    if name == "linear_combine":
        n = 0
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                return None  # dynamic arity
            n += 1
        if n == 0:
            return None
        return Counter({"MUL": n, "ADD": n - 1})
    spec = FUSED_SEQUENCES.get(name)
    return Counter(spec) if spec else None


def rc005_fused_parity(
    facts: FunctionFacts, path: str, source_lines: Sequence[str]
) -> List[Finding]:
    """RC005: fused call whose documented expression disagrees."""
    out: List[Finding] = []
    for name, call in facts.fused_calls:
        expected = _expected_fused_ops(name, call)
        if expected is None:
            continue
        comment = _comment_for_call(call, source_lines)
        if comment is None:
            continue
        documented = _ops_from_comment(comment)
        if documented is None:
            continue
        if documented != expected:
            exp = ", ".join(f"{k}x{v}" for k, v in sorted(expected.items()))
            doc = ", ".join(f"{k}x{v}" for k, v in sorted(documented.items()))
            out.append(
                Finding(
                    code="RC005",
                    path=path,
                    line=call.lineno,
                    col=call.col_offset,
                    symbol=facts.symbol,
                    message=(
                        f"{name}() charges [{exp}] but the documented "
                        f"expression ({comment!r}) implies [{doc}]; fix "
                        "the comment or the call so the charged FLOP-"
                        "kind sequence matches what it replaces"
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


def rc007_unfused_hot_charges(
    facts: FunctionFacts, path: str
) -> List[Finding]:
    """RC007: consecutive same-layout charges inside a loop body.

    Each ``charge_elementwise`` call pays Python-call and
    layout-pricing overhead once per loop iteration; a run of two or
    more adjacent calls on the same layout is the exact shape
    ``charge_elementwise_seq`` fuses into a single priced call with
    bit-identical totals.
    """
    out: List[Finding] = []
    for site in facts.hot_charge_runs:
        out.append(
            Finding(
                code="RC007",
                path=path,
                line=site.line,
                col=site.col,
                symbol=facts.symbol,
                message=(
                    f"{site.detail} inside a loop body — fuse into one "
                    "charge_elementwise_seq(((kind, ops, complex), "
                    "...), layout) call; totals are bit-identical and "
                    "per-iteration accounting overhead drops to a "
                    "single call"
                ),
            )
        )
    return out


def apply_rules(
    facts: FunctionFacts, path: str, source_lines: Sequence[str]
) -> List[Finding]:
    """Run every rule over one function's facts."""
    findings: List[Finding] = []
    findings.extend(rc001_uncharged_compute(facts, path))
    findings.extend(rc002_kind_mismatch(facts, path))
    findings.extend(rc003_comm_without_record(facts, path))
    findings.extend(rc004_session_misuse(facts, path))
    findings.extend(rc005_fused_parity(facts, path, source_lines))
    findings.extend(rc006_dangling_spans(facts, path))
    findings.extend(rc007_unfused_hot_charges(facts, path))
    return findings
