"""Module-level call graph over every function in scope.

The graph is built once per lint run over every file in scope:

* each module is parsed and every function's own body scanned once
  for its call sites (:func:`scan_calls`; nested functions get their
  own scan);
* call edges are resolved through imports (``from x import f``,
  ``import x as a``), same-module names, ``self.method`` dispatch,
  constructor-inferred attribute/local types (``self.pool =
  WorkerPool(...)`` makes ``self.pool.restart()`` resolve), and a
  restricted unique-method-name fallback for everything else;
* function *references* handed to thread registrars
  (``Thread(target=f)``, ``executor.submit(f)``,
  ``loop.run_in_executor(None, f)``, ``fanout.subscribe(f)``) are
  kept separately as thread entries — they are not call edges, because
  the registering function never runs them in its own context.

The consumer is :mod:`repro.check.concurrency` (RC101-RC104), which
runs its analyses over the edges.  See docs/CHECKS.md ("The call
graph").
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple


#: Method names never resolved through the unique-name fallback: they
#: collide with builtin container/string/file/concurrency vocabulary,
#: and a wild edge into (say) a store's ``append`` would smear its
#: blocking evidence over every ``list.append`` in an async function.
AMBIGUOUS_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "index",
    "count", "sort", "reverse", "copy", "get", "setdefault", "update",
    "keys", "values", "items", "add", "discard", "union", "join",
    "split", "rsplit", "strip", "lstrip", "rstrip", "startswith",
    "endswith", "format", "replace", "encode", "decode", "lower",
    "upper", "read", "write", "close", "flush", "seek", "tell",
    "open", "send", "put", "get_nowait", "put_nowait", "result",
    "set", "wait", "acquire", "release", "submit", "cancel", "done",
    "cancelled", "exception",
    "run", "start", "stop", "shutdown", "next", "reset",
    # numpy ndarray vocabulary: ``x.sum()`` on a plain array must not
    # resolve to a same-named DistArray intrinsic (a wild edge here
    # drags collective record_comm literals into app closures)
    "sum", "mean", "max", "min", "std", "var", "prod", "all", "any",
    "astype", "reshape", "transpose", "dot", "cumsum", "round",
    "clip", "fill", "item", "tolist", "flatten", "ravel", "squeeze",
    "argmax", "argmin", "take", "conj", "trace", "nonzero",
}

#: Registrars whose function-valued argument runs on *another thread*
#: (or process): maps registrar name -> how to find the callable.
THREAD_REGISTRARS = {
    "Thread": "target_kw",       # threading.Thread(target=f)
    "submit": "arg0",            # executor.submit(f, ...)
    "map": "arg0",               # executor.map(f, ...)
    "run_in_executor": "arg1",   # loop.run_in_executor(None, f, ...)
    "to_thread": "arg0",         # asyncio.to_thread(f, ...)
    "add_done_callback": "arg0",  # future.add_done_callback(f)
    "subscribe": "arg0",         # EventFanout.subscribe(f)
}

#: Registrars whose callable runs *on the event loop*: neither a call
#: edge nor a thread entry (this is the sanctioned cross-thread idiom
#: RC102 endorses).
LOOP_REGISTRARS = {"call_soon_threadsafe", "call_soon", "call_later",
                   "call_at"}


def call_name(func: ast.expr) -> Tuple[Optional[str], Optional[str]]:
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


@dataclass
class RawCall:
    """One call site of a function, before resolution.

    ``recv``/``name`` are the :func:`call_name` decomposition.  The
    AST nodes are kept so resolution can follow deep attribute chains
    and keyword arguments.
    """

    recv: Optional[str]
    name: Optional[str]
    line: int
    col: int
    func: ast.expr
    call: ast.Call


class _CallScanner(ast.NodeVisitor):
    """Collects a body's call sites in evaluation order."""

    def __init__(self) -> None:
        self.calls: List[RawCall] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested functions get their own scan

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)  # the value is evaluated before the targets
        for target in node.targets:
            self.visit(target)

    def visit_Call(self, node: ast.Call) -> None:
        recv, name = call_name(node.func)
        self.calls.append(RawCall(
            recv, name, node.lineno, node.col_offset, node.func, node,
        ))
        self.generic_visit(node)


def scan_calls(node: ast.AST) -> List[RawCall]:
    """Call sites of one function (or module) body, nested defs excluded."""
    scanner = _CallScanner()
    for stmt in getattr(node, "body", [node]):
        scanner.visit(stmt)
    return scanner.calls


@dataclass
class ResolvedCall:
    """One call edge out of a function."""

    target: str          # callee qualname ("module:symbol")
    line: int
    col: int
    name: str            # callee short name, for messages


@dataclass
class ThreadTarget:
    """A function reference registered to run on another thread."""

    target: Optional[str]            # resolved qualname, if any
    lambda_node: Optional[ast.Lambda]
    line: int
    col: int
    registrar: str


@dataclass
class ClassInfo:
    """One class definition: methods, bases and inferred attr types."""

    name: str
    module: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Set[str] = field(default_factory=set)
    #: self.<attr> -> class qualname, inferred from constructor calls
    #: and annotations in any method body
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class FunctionNode:
    """One function (or the module body) in the graph."""

    qualname: str
    module: str
    symbol: str
    path: str
    node: ast.AST
    is_async: bool
    class_name: Optional[str]
    #: the body's own call sites (:func:`scan_calls`)
    calls: List[RawCall]
    resolved: List[ResolvedCall] = field(default_factory=list)
    thread_targets: List[ThreadTarget] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """Per-module symbol tables."""

    name: str
    path: str
    tree: ast.Module
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: alias -> module name  (``import x.y as a``)
    imports: Dict[str, str] = field(default_factory=dict)
    #: name -> (module, original name)  (``from x import y [as z]``)
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)


def module_name_for(path: str) -> str:
    """Dotted module name for a source path (``src/`` roots stripped)."""
    parts = path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    return ".".join(p for p in parts if p) or path


def _iter_defs(tree: ast.Module):
    """Yield ``(symbol, class_name, node)`` for module body and defs."""
    yield "<module>", None, tree

    def walk(body, prefix: str, class_name: Optional[str]):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                symbol = f"{prefix}{node.name}"
                yield symbol, class_name, node
                yield from walk(node.body, f"{symbol}.", None)
            elif isinstance(node, ast.ClassDef):
                yield from walk(
                    node.body, f"{prefix}{node.name}.", node.name
                )

    yield from walk(tree.body, "", None)


class CallGraph:
    """The project-wide graph.  Build with :meth:`build`."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionNode] = {}
        #: method name -> qualnames defining it (fallback dispatch)
        self.method_index: Dict[str, List[str]] = {}
        #: class qualname ("module:Class") -> ClassInfo
        self.class_index: Dict[str, ClassInfo] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def build(
        cls,
        units: Sequence[Tuple[str, ast.Module]],
    ) -> "CallGraph":
        """Build from ``(shown_path, parsed_tree)`` units."""
        graph = cls()
        for path, tree in units:
            graph._add_module(path, tree)
        graph._resolve_attr_types()
        for fn in graph.functions.values():
            graph._resolve_calls(fn)
        return graph

    def _add_module(self, path: str, tree: ast.Module) -> None:
        mod = ModuleInfo(name=module_name_for(path), path=path, tree=tree)
        if mod.name in self.modules:
            # duplicate module name (e.g. two fixture files): last wins
            # for import resolution, both keep their function nodes
            pass
        self.modules[mod.name] = mod
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    mod.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(stmt, ast.ImportFrom):
                base = stmt.module or ""
                if stmt.level:
                    parts = mod.name.split(".")
                    parts = parts[: len(parts) - stmt.level]
                    base = ".".join(parts + ([stmt.module]
                                             if stmt.module else []))
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    mod.from_imports[alias.asname or alias.name] = (
                        base, alias.name
                    )
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                info = ClassInfo(
                    name=node.name, module=mod.name, node=node,
                    bases=[ast.unparse(b) for b in node.bases],
                )
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        info.methods.add(item.name)
                mod.classes[node.name] = info
                self.class_index[f"{mod.name}:{node.name}"] = info
        for symbol, class_name, node in _iter_defs(tree):
            qualname = f"{mod.name}:{symbol}"
            fn = FunctionNode(
                qualname=qualname,
                module=mod.name,
                symbol=symbol,
                path=path,
                node=node,
                is_async=isinstance(node, ast.AsyncFunctionDef),
                class_name=class_name,
                calls=scan_calls(node),
            )
            mod.functions[symbol] = fn
            self.functions[qualname] = fn
            if class_name is not None and symbol.count(".") == 1:
                name = symbol.split(".", 1)[1]
                self.method_index.setdefault(name, []).append(qualname)

    # -- type inference -------------------------------------------------
    def _resolve_class_name(
        self, mod: ModuleInfo, expr: ast.expr
    ) -> Optional[str]:
        """Class qualname for a constructor expression, if known."""
        if isinstance(expr, ast.Name):
            if expr.id in mod.classes:
                return f"{mod.name}:{expr.id}"
            tgt = mod.from_imports.get(expr.id)
            if tgt:
                m2, orig = tgt
                m2info = self.modules.get(m2)
                if m2info and orig in m2info.classes:
                    return f"{m2}:{orig}"
        elif isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            m2 = mod.imports.get(expr.value.id)
            if m2:
                m2info = self.modules.get(m2)
                if m2info and expr.attr in m2info.classes:
                    return f"{m2}:{expr.attr}"
        return None

    def _resolve_attr_types(self) -> None:
        """Infer ``self.<attr>`` classes from constructor assignments."""
        for mod in self.modules.values():
            for cinfo in mod.classes.values():
                for item in ast.walk(cinfo.node):
                    target: Optional[str] = None
                    value: Optional[ast.expr] = None
                    if isinstance(item, ast.Assign) and len(
                        item.targets
                    ) == 1:
                        t = item.targets[0]
                        if (
                            isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                        ):
                            target, value = t.attr, item.value
                    elif isinstance(item, ast.AnnAssign):
                        t = item.target
                        if (
                            isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                        ):
                            target = t.attr
                            ann = self._resolve_class_name(
                                mod, item.annotation
                            )
                            if ann:
                                cinfo.attr_types.setdefault(target, ann)
                            value = item.value
                    if target is None or value is None:
                        continue
                    if isinstance(value, ast.Call):
                        qn = self._resolve_class_name(mod, value.func)
                        if qn:
                            cinfo.attr_types.setdefault(target, qn)

    def _local_types(self, fn: FunctionNode) -> Dict[str, str]:
        """``var -> class qualname`` for constructor-assigned locals."""
        mod = self.modules[fn.module]
        out: Dict[str, str] = {}
        body = getattr(fn.node, "body", [])
        for stmt in body:
            for item in ast.walk(stmt):
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if (
                    isinstance(item, ast.Assign)
                    and len(item.targets) == 1
                    and isinstance(item.targets[0], ast.Name)
                    and isinstance(item.value, ast.Call)
                ):
                    qn = self._resolve_class_name(mod, item.value.func)
                    if qn:
                        out[item.targets[0].id] = qn
        return out

    # -- call resolution ------------------------------------------------
    def _method_in_class(
        self, class_qn: str, name: str, _depth: int = 0
    ) -> Optional[str]:
        """Resolve a method through the class and its known bases."""
        if _depth > 8:
            return None
        cinfo = self.class_index.get(class_qn)
        if cinfo is None:
            return None
        if name in cinfo.methods:
            return f"{cinfo.module}:{cinfo.name}.{name}"
        mod = self.modules.get(cinfo.module)
        for base in cinfo.bases:
            if mod is None:
                break
            base_qn = self._resolve_class_name(
                mod, ast.parse(base, mode="eval").body
            )
            if base_qn:
                hit = self._method_in_class(base_qn, name, _depth + 1)
                if hit:
                    return hit
        return None

    def resolve_ref(
        self,
        fn: FunctionNode,
        expr: ast.expr,
        local_types: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        """Resolve a function/method reference expression to a qualname."""
        mod = self.modules[fn.module]
        if isinstance(expr, ast.Name):
            name = expr.id
            sibling = f"{fn.symbol}.{name}"
            if sibling in mod.functions:
                return mod.functions[sibling].qualname
            if name in mod.functions:
                return mod.functions[name].qualname
            tgt = mod.from_imports.get(name)
            if tgt:
                m2, orig = tgt
                m2info = self.modules.get(m2)
                if m2info and orig in m2info.functions:
                    return m2info.functions[orig].qualname
            return None
        if not isinstance(expr, ast.Attribute):
            return None
        name = expr.attr
        value = expr.value
        if isinstance(value, ast.Name):
            recv = value.id
            if recv in ("self", "cls") and fn.class_name:
                hit = self._method_in_class(
                    f"{fn.module}:{fn.class_name}", name
                )
                if hit:
                    return hit
            m2 = mod.imports.get(recv)
            if m2:
                m2info = self.modules.get(m2)
                if m2info and name in m2info.functions:
                    return m2info.functions[name].qualname
                return None
            tgt = mod.from_imports.get(recv)
            if tgt and tgt[0]:
                # ``from repro import comm; comm.cshift(...)``
                m2info = self.modules.get(f"{tgt[0]}.{tgt[1]}")
                if m2info and name in m2info.functions:
                    return m2info.functions[name].qualname
            if local_types and recv in local_types:
                return self._method_in_class(local_types[recv], name)
        elif (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and fn.class_name
        ):
            cinfo = self.class_index.get(f"{fn.module}:{fn.class_name}")
            if cinfo:
                attr_qn = cinfo.attr_types.get(value.attr)
                if attr_qn:
                    return self._method_in_class(attr_qn, name)
        # restricted dynamic-dispatch fallback: unique method name
        if (
            name not in AMBIGUOUS_METHODS
            and not name.startswith("__")
            and len(self.method_index.get(name, ())) == 1
        ):
            return self.method_index[name][0]
        return None

    def _callable_arg(self, call: ast.Call, how: str) -> Optional[ast.expr]:
        if how == "target_kw":
            for kw in call.keywords:
                if kw.arg == "target":
                    return kw.value
            return None
        idx = {"arg0": 0, "arg1": 1}[how]
        if len(call.args) > idx:
            return call.args[idx]
        return None

    def _resolve_calls(self, fn: FunctionNode) -> None:
        local_types = self._local_types(fn)
        for rc in fn.calls:
            if rc.name in LOOP_REGISTRARS:
                continue
            if rc.name in THREAD_REGISTRARS and not (
                rc.name in ("submit", "map") and rc.recv is None
            ):
                # builtin map()/bare submit() are same-thread; the
                # method spellings hand their callable to a worker
                arg = self._callable_arg(
                    rc.call, THREAD_REGISTRARS[rc.name]
                )
                if isinstance(arg, ast.Lambda):
                    fn.thread_targets.append(ThreadTarget(
                        None, arg, rc.line, rc.col, rc.name or ""
                    ))
                elif isinstance(arg, (ast.Name, ast.Attribute)):
                    tq = self.resolve_ref(fn, arg, local_types)
                    if tq:
                        fn.thread_targets.append(ThreadTarget(
                            tq, None, rc.line, rc.col, rc.name or ""
                        ))
                # fall through: the registrar call itself may be a real
                # method in the graph (e.g. WorkerPool.submit) — only
                # the callable *argument* escapes to another thread
            tq = self.resolve_ref(fn, rc.func, local_types)
            if tq and tq != fn.qualname:
                fn.resolved.append(ResolvedCall(
                    tq, rc.line, rc.col, rc.name or ""
                ))
