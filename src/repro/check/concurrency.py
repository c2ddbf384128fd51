"""Concurrency lints RC101-RC104 for the async serving stack.

PR 6 made an asyncio event loop the production heart of the repo
(``repro.serve``), fed by worker threads, a resident process pool and
``threading.Lock``+``flock`` sharded stores.  Those layers meet in
exactly four well-known failure shapes, each of which is invisible to
tests that don't race:

* **RC101** — a blocking call (``time.sleep``, synchronous file I/O,
  ``Lock.acquire``, ``future.result()``, ``fcntl.flock``, process-pool
  construction) reachable from an ``async def`` body without an
  executor offload: it stalls every coroutine on the loop, not just
  the caller.
* **RC102** — an asyncio loop/future/queue object touched from a
  worker thread without ``loop.call_soon_threadsafe``: asyncio's data
  structures are not thread-safe, and the failure is a silent lost
  wakeup, not an exception.
* **RC103** — inconsistent lock-acquisition order across
  ``threading.Lock`` and ``flock`` sites (a cycle in the global
  lock-order graph): the two-level scheme in ``engine/shards.py`` is
  deadlock-free *because* every path takes the shard mutex before the
  file lock; a new path taking them in the other order deadlocks under
  contention only.
* **RC104** — shared mutable attributes written from both coroutine
  context and thread context with no guarding lock on at least one
  side.

All four reason over the interprocedural call graph
(:mod:`repro.check.callgraph`): blocking evidence propagates through
sync callees, thread context flows from ``Thread(target=...)`` /
``executor.submit`` / ``subscribe`` registration points, and lock
order closes over calls made while a lock is held.  Callables handed
to ``run_in_executor`` / ``call_soon_threadsafe`` are recognized as
the sanctioned escape hatches and never propagate.

See docs/CHECKS.md for the catalog entries and worked examples.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.check.callgraph import CallGraph, FunctionNode, call_name
from repro.check.findings import Finding

#: threading-module constructors whose instances block the caller.
THREAD_LOCK_CTORS = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
}
#: asyncio constructors: locks are awaited (never a blocking concern),
#: objects are loop-affine state (the RC102 concern).
ASYNC_LOCK_CTORS = {"Lock", "Condition", "Semaphore", "BoundedSemaphore"}
ASYNC_OBJ_CTORS = {"Queue", "LifoQueue", "PriorityQueue", "Event", "Future"}
LOOP_GETTERS = {"get_event_loop", "get_running_loop", "new_event_loop"}

#: mutating methods on asyncio objects / event loops that are unsafe
#: to call from another thread (``call_soon_threadsafe`` is the safe
#: spelling and deliberately absent).
OBJ_MUTATORS = {"put_nowait", "set_result", "set_exception", "set",
                "clear", "cancel"}
LOOP_MUTATORS = {"create_task", "call_soon", "call_later", "call_at",
                 "stop"}

#: ``with``-context heuristics: a call whose name carries one of these
#: tokens returns a lock (e.g. ``self._shard_mutex(key)``).
LOCKISH_TOKENS = ("lock", "mutex", "guard")


@dataclass
class _BlockSite:
    kind: str
    line: int
    col: int
    origin: str = ""  # qualname where the evidence lives (propagated)


@dataclass
class _MutSite:
    desc: str
    line: int
    col: int


@dataclass
class _WriteSite:
    attr: str
    line: int
    col: int
    guarded: bool


@dataclass
class ConcFacts:
    """Concurrency-relevant evidence for one function."""

    blocking: List[_BlockSite] = field(default_factory=list)
    lock_acqs: Set[str] = field(default_factory=set)
    #: (held, acquired) -> first site
    lock_edges: Dict[Tuple[str, str], Tuple[int, int]] = field(
        default_factory=dict
    )
    #: calls made while holding locks: (held-set, line, col)
    held_calls: List[Tuple[FrozenSet[str], int, int]] = field(
        default_factory=list
    )
    mutations: List[_MutSite] = field(default_factory=list)
    #: mutations inside lambdas registered as thread callbacks — these
    #: fire RC102 regardless of the enclosing function's own context
    lambda_mutations: List[_MutSite] = field(default_factory=list)
    attr_writes: List[_WriteSite] = field(default_factory=list)


def _ctor_kind(call: ast.Call) -> Optional[str]:
    """Classify a constructor call: tlock / alock / aobj / loop."""
    recv, name = call_name(call.func)
    if name is None:
        return None
    if recv == "threading" and name in THREAD_LOCK_CTORS:
        return "tlock"
    if recv is None and name in THREAD_LOCK_CTORS:
        return "tlock"  # from threading import Lock
    if recv == "asyncio":
        if name in ASYNC_LOCK_CTORS:
            return "alock"
        if name in ASYNC_OBJ_CTORS:
            return "aobj"
        if name in LOOP_GETTERS:
            return "loop"
    if name in LOOP_GETTERS:
        return "loop"
    if name == "create_future":
        return "aobj"
    return None


def _iter_nodes(expr: ast.AST, *, skip_lambda: bool = True) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into lambdas/nested defs."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if skip_lambda and isinstance(
                child,
                (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef,
                 ast.ClassDef),
            ):
                continue
            stack.append(child)


class _ClassEnv:
    """Attribute classifications for one class (prepass result)."""

    def __init__(self) -> None:
        self.lock_attrs: Set[str] = set()
        self.alock_attrs: Set[str] = set()
        self.aobj_attrs: Set[str] = set()
        self.loop_attrs: Set[str] = set()


def _class_envs(graph: CallGraph) -> Dict[str, _ClassEnv]:
    envs: Dict[str, _ClassEnv] = {}
    for qn, cinfo in graph.class_index.items():
        env = _ClassEnv()
        for node in ast.walk(cinfo.node):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
                and isinstance(node.targets[0].value, ast.Name)
                and node.targets[0].value.id == "self"
                and isinstance(node.value, ast.Call)
            ):
                continue
            kind = _ctor_kind(node.value)
            attr = node.targets[0].attr
            if kind == "tlock":
                env.lock_attrs.add(attr)
            elif kind == "alock":
                env.alock_attrs.add(attr)
            elif kind == "aobj":
                env.aobj_attrs.add(attr)
            elif kind == "loop":
                env.loop_attrs.add(attr)
        envs[qn] = env
    return envs


def _module_locks(graph: CallGraph) -> Dict[str, Set[str]]:
    out: Dict[str, Set[str]] = {}
    for name, mod in graph.modules.items():
        locks: Set[str] = set()
        for stmt in mod.tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
                and _ctor_kind(stmt.value) == "tlock"
            ):
                locks.add(stmt.targets[0].id)
        out[name] = locks
    return out


class _ConcScanner:
    """Single pass over one function body with lock-held tracking."""

    def __init__(
        self,
        fn: FunctionNode,
        env: Optional[_ClassEnv],
        mod_locks: Set[str],
    ) -> None:
        self.fn = fn
        self.env = env or _ClassEnv()
        self.mod_locks = mod_locks
        self.facts = ConcFacts()
        #: local classifications: name -> tlock/alock/aobj/loop/future
        self.local: Dict[str, str] = {}
        self.awaited: Set[Tuple[int, int]] = set()
        for node in ast.walk(fn.node) if not isinstance(
            fn.node, ast.Module
        ) else iter(()):
            if isinstance(node, ast.Await) and isinstance(
                node.value, ast.Call
            ):
                self.awaited.add(
                    (node.value.lineno, node.value.col_offset)
                )

    # -- identification --------------------------------------------------
    def _obj_kind(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            kind = self.local.get(expr.id)
            if kind:
                return kind
            if expr.id in self.mod_locks:
                return "tlock"
            if expr.id == "loop" or expr.id.endswith("_loop"):
                return "loop"
            return None
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            attr = expr.attr
            if attr in self.env.lock_attrs:
                return "tlock"
            if attr in self.env.alock_attrs:
                return "alock"
            if attr in self.env.aobj_attrs:
                return "aobj"
            if attr in self.env.loop_attrs or attr.endswith("_loop"):
                return "loop"
        return None

    def _lock_name(self, expr: ast.expr) -> Optional[str]:
        """Stable lock identity for the order graph, if lock-like."""
        mod = self.fn.module
        cls = self.fn.class_name
        if self._obj_kind(expr) == "tlock":
            if isinstance(expr, ast.Name):
                if expr.id in self.mod_locks:
                    return f"{mod}:{expr.id}"
                return f"{mod}:{self.fn.symbol}.{expr.id}"
            if isinstance(expr, ast.Attribute):
                return f"{mod}:{cls}.{expr.attr}"
        if isinstance(expr, ast.Call):
            _, name = call_name(expr.func)
            if name and any(t in name.lower() for t in LOCKISH_TOKENS):
                owner = cls or self.fn.symbol
                return f"{mod}:{owner}.{name}()"
        return None

    # -- evidence --------------------------------------------------------
    def _blocking_kind(self, call: ast.Call) -> Optional[str]:
        recv, name = call_name(call.func)
        if name is None:
            return None
        pos = (call.lineno, call.col_offset)
        if recv == "time" and name == "sleep":
            return "time.sleep()"
        if recv == "fcntl" and name == "flock":
            return "fcntl.flock()"
        if recv is None and name == "open":
            return "open()"
        if name in {"write_text", "read_text", "write_bytes",
                    "read_bytes"}:
            return f".{name}() file I/O"
        if recv == "os" and name in {"replace", "rename", "fsync"}:
            return f"os.{name}()"
        if recv in {"json", "pickle"} and name in {"dump", "load"}:
            return f"{recv}.{name}() stream I/O"
        if recv == "subprocess" and name in {
            "run", "call", "check_call", "check_output"
        }:
            return f"subprocess.{name}()"
        if recv is None and name == "ProcessPoolExecutor":
            return "ProcessPoolExecutor() construction"
        if recv is not None and name == "ProcessPoolExecutor":
            return "ProcessPoolExecutor() construction"
        if name == "acquire" and pos not in self.awaited:
            recv_expr = getattr(call.func, "value", None)
            if recv_expr is not None:
                kind = self._obj_kind(recv_expr)
                if kind == "tlock":
                    return "Lock.acquire()"
                if kind is None and isinstance(
                    recv_expr, (ast.Name, ast.Attribute)
                ):
                    label = ast.unparse(recv_expr)
                    if any(
                        t in label.lower() for t in LOCKISH_TOKENS
                    ):
                        return f"{label}.acquire()"
        if name == "result" and pos not in self.awaited:
            recv_expr = getattr(call.func, "value", None)
            if isinstance(recv_expr, ast.Name) and self.local.get(
                recv_expr.id
            ) == "future":
                return "Future.result()"
        return None

    def _mutation(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        kind = self._obj_kind(func.value)
        if kind == "aobj" and func.attr in OBJ_MUTATORS:
            return f"{ast.unparse(func.value)}.{func.attr}()"
        if kind == "loop" and func.attr in LOOP_MUTATORS:
            return f"{ast.unparse(func.value)}.{func.attr}()"
        return None

    def _scan_lambda(self, lam: ast.Lambda) -> None:
        for node in _iter_nodes(lam.body, skip_lambda=False):
            if isinstance(node, ast.Call):
                desc = self._mutation(node)
                if desc:
                    self.facts.lambda_mutations.append(
                        _MutSite(desc, node.lineno, node.col_offset)
                    )

    def _process_call(
        self, call: ast.Call, held: Tuple[str, ...]
    ) -> None:
        recv, name = call_name(call.func)
        kind = self._blocking_kind(call)
        if kind:
            self.facts.blocking.append(_BlockSite(
                kind, call.lineno, call.col_offset, self.fn.qualname
            ))
        if recv == "fcntl" and name == "flock":
            self._acquire("flock", call, held)
        desc = self._mutation(call)
        if desc:
            self.facts.mutations.append(
                _MutSite(desc, call.lineno, call.col_offset)
            )
        if name == "acquire":
            recv_expr = getattr(call.func, "value", None)
            if recv_expr is not None:
                lid = self._lock_name(recv_expr)
                if lid:
                    self._acquire(lid, call, held)
        # lambdas registered to run on another thread
        from repro.check.callgraph import (
            LOOP_REGISTRARS,
            THREAD_REGISTRARS,
        )
        if name in THREAD_REGISTRARS and name not in LOOP_REGISTRARS:
            for arg in list(call.args) + [
                k.value for k in call.keywords
            ]:
                if isinstance(arg, ast.Lambda):
                    self._scan_lambda(arg)
        if held:
            self.facts.held_calls.append(
                (frozenset(held), call.lineno, call.col_offset)
            )

    def _acquire(
        self, lock_id: str, node: ast.AST, held: Tuple[str, ...]
    ) -> None:
        self.facts.lock_acqs.add(lock_id)
        for h in held:
            if h != lock_id:
                self.facts.lock_edges.setdefault(
                    (h, lock_id), (node.lineno, node.col_offset)
                )

    # -- traversal -------------------------------------------------------
    def scan(self) -> ConcFacts:
        body = getattr(self.fn.node, "body", [])
        self._walk(body, ())
        return self.facts

    def _exprs(self, expr: Optional[ast.AST], held: Tuple[str, ...]) -> None:
        if expr is None:
            return
        for node in _iter_nodes(expr):
            if isinstance(node, ast.Call):
                self._process_call(node, held)

    def _note_assign(self, stmt: ast.stmt) -> None:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
        ):
            name = stmt.targets[0].id
            kind = _ctor_kind(stmt.value)
            if kind:
                self.local[name] = kind
                return
            _, cname = call_name(stmt.value.func)
            if cname == "submit":
                self.local[name] = "future"

    def _note_write(
        self, target: ast.expr, stmt: ast.stmt, held: Tuple[str, ...]
    ) -> None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.facts.attr_writes.append(_WriteSite(
                target.attr, stmt.lineno, stmt.col_offset, bool(held)
            ))

    def _walk(
        self, stmts: List[ast.stmt], held: Tuple[str, ...]
    ) -> None:
        for stmt in stmts:
            if isinstance(
                stmt,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired: List[str] = []
                for item in stmt.items:
                    self._exprs(item.context_expr, held)
                    if isinstance(stmt, ast.AsyncWith):
                        continue  # awaited: asyncio lock, never held
                    lid = self._lock_name(item.context_expr)
                    if lid:
                        self._acquire(lid, item.context_expr, held)
                        acquired.append(lid)
                self._walk(stmt.body, held + tuple(acquired))
                continue
            self._note_assign(stmt)
            if isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    self._note_write(t, stmt, held)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                self._note_write(stmt.target, stmt, held)
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._exprs(stmt.iter, held)
                self._walk(stmt.body, held)
                self._walk(stmt.orelse, held)
                continue
            if isinstance(stmt, ast.While):
                self._exprs(stmt.test, held)
                self._walk(stmt.body, held)
                self._walk(stmt.orelse, held)
                continue
            if isinstance(stmt, ast.If):
                self._exprs(stmt.test, held)
                self._walk(stmt.body, held)
                self._walk(stmt.orelse, held)
                continue
            if isinstance(stmt, ast.Try):
                self._walk(stmt.body, held)
                for handler in stmt.handlers:
                    self._walk(handler.body, held)
                self._walk(stmt.orelse, held)
                self._walk(stmt.finalbody, held)
                continue
            # plain statement: scan all contained expressions
            for child in ast.iter_child_nodes(stmt):
                self._exprs(child, held)


# ----------------------------------------------------------------------
# Analysis over the graph
# ----------------------------------------------------------------------
class ConcurrencyAnalysis:
    """RC101-RC104 over a built :class:`CallGraph`."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.envs = _class_envs(graph)
        self.mod_locks = _module_locks(graph)
        self.facts: Dict[str, ConcFacts] = {}
        for qn, fn in graph.functions.items():
            env = (
                self.envs.get(f"{fn.module}:{fn.class_name}")
                if fn.class_name
                else None
            )
            scanner = _ConcScanner(
                fn, env, self.mod_locks.get(fn.module, set())
            )
            self.facts[qn] = scanner.scan()
        self.thread_ctx = self._thread_context()
        self.async_ctx = self._async_context()
        self.block_trans = self._propagate_blocking()
        self.locks_trans = self._propagate_locks()

    # -- contexts --------------------------------------------------------
    def _thread_entries(self) -> Set[str]:
        entries: Set[str] = set()
        for fn in self.graph.functions.values():
            for tt in fn.thread_targets:
                if tt.target:
                    entries.add(tt.target)
        # subclasses of threading.Thread: their run() is a thread entry
        for qn, cinfo in self.graph.class_index.items():
            if any("Thread" in b for b in cinfo.bases):
                if "run" in cinfo.methods:
                    entries.add(f"{cinfo.module}:{cinfo.name}.run")
        return entries

    def _bfs(self, seeds: Set[str], *, into_async: bool) -> Set[str]:
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            qn = stack.pop()
            fn = self.graph.functions.get(qn)
            if fn is None:
                continue
            for edge in fn.resolved:
                t = self.graph.functions.get(edge.target)
                if t is None or edge.target in seen:
                    continue
                if t.is_async and not into_async:
                    continue
                seen.add(edge.target)
                stack.append(edge.target)
        return seen

    def _thread_context(self) -> Set[str]:
        return self._bfs(self._thread_entries(), into_async=False)

    def _async_context(self) -> Set[str]:
        seeds = {
            qn for qn, fn in self.graph.functions.items() if fn.is_async
        }
        return self._bfs(seeds, into_async=True)

    # -- propagation -----------------------------------------------------
    def _propagate_blocking(self) -> Dict[str, List[_BlockSite]]:
        """Blocking evidence reachable through *sync* callees only.

        Async callees are excluded: they receive their own direct
        RC101 findings, and double-reporting every caller up the await
        chain would bury the actionable site.
        """
        trans: Dict[str, List[_BlockSite]] = {}
        for qn, fn in self.graph.functions.items():
            trans[qn] = (
                list(self.facts[qn].blocking) if not fn.is_async else []
            )
        for _ in range(64):
            changed = False
            for qn, fn in self.graph.functions.items():
                if fn.is_async:
                    continue
                have = {(s.kind, s.origin) for s in trans[qn]}
                for edge in fn.resolved:
                    t = self.graph.functions.get(edge.target)
                    if t is None or t.is_async:
                        continue
                    for site in trans.get(edge.target, ())[:4]:
                        key = (site.kind, site.origin)
                        if key not in have and len(trans[qn]) < 8:
                            trans[qn].append(site)
                            have.add(key)
                            changed = True
            if not changed:
                break
        return trans

    def _propagate_locks(self) -> Dict[str, Set[str]]:
        trans: Dict[str, Set[str]] = {
            qn: set(self.facts[qn].lock_acqs)
            for qn in self.graph.functions
        }
        for _ in range(64):
            changed = False
            for qn, fn in self.graph.functions.items():
                for edge in fn.resolved:
                    other = trans.get(edge.target)
                    if other and not other <= trans[qn]:
                        trans[qn] |= other
                        changed = True
            if not changed:
                break
        return trans

    # -- rules -----------------------------------------------------------
    def rc101(self) -> List[Finding]:
        out: List[Finding] = []
        for qn, fn in self.graph.functions.items():
            if not fn.is_async:
                continue
            seen: Set[Tuple[int, int, str]] = set()
            for site in self.facts[qn].blocking:
                key = (site.line, site.col, site.kind)
                if key in seen:
                    continue
                seen.add(key)
                out.append(Finding(
                    code="RC101",
                    path=fn.path,
                    line=site.line,
                    col=site.col,
                    symbol=fn.symbol,
                    message=(
                        f"{site.kind} inside 'async def {fn.symbol}' "
                        "blocks the event loop — offload via "
                        "loop.run_in_executor(...) or restructure"
                    ),
                ))
            for edge in fn.resolved:
                t = self.graph.functions.get(edge.target)
                if t is None or t.is_async:
                    continue
                sites = self.block_trans.get(edge.target, ())
                if not sites:
                    continue
                site = sites[0]
                key = (edge.line, edge.col, site.kind)
                if key in seen:
                    continue
                seen.add(key)
                origin = site.origin.replace(":", "::")
                out.append(Finding(
                    code="RC101",
                    path=fn.path,
                    line=edge.line,
                    col=edge.col,
                    symbol=fn.symbol,
                    message=(
                        f"call to {edge.name}() from 'async def "
                        f"{fn.symbol}' reaches {site.kind} (in "
                        f"{origin}) without leaving the event loop — "
                        "offload via loop.run_in_executor(...)"
                    ),
                ))
        return out

    def rc102(self) -> List[Finding]:
        out: List[Finding] = []
        for qn, fn in self.graph.functions.items():
            conc = self.facts[qn]
            if qn in self.thread_ctx:
                for mut in conc.mutations:
                    out.append(Finding(
                        code="RC102",
                        path=fn.path,
                        line=mut.line,
                        col=mut.col,
                        symbol=fn.symbol,
                        message=(
                            f"{mut.desc} runs on a worker thread (this "
                            "function is registered as a thread target "
                            "or called from one) but mutates an asyncio "
                            "object owned by the event loop — wrap it "
                            "in loop.call_soon_threadsafe(...)"
                        ),
                    ))
            for mut in conc.lambda_mutations:
                out.append(Finding(
                    code="RC102",
                    path=fn.path,
                    line=mut.line,
                    col=mut.col,
                    symbol=fn.symbol,
                    message=(
                        f"{mut.desc} inside a callback registered to "
                        "run on a worker thread mutates an asyncio "
                        "object — wrap the mutation in "
                        "loop.call_soon_threadsafe(...)"
                    ),
                ))
        return out

    def rc103(self) -> List[Finding]:
        # global lock-order graph: direct edges plus calls made while
        # holding a lock into functions that (transitively) acquire
        edges: Dict[Tuple[str, str], Tuple[str, int, int]] = {}
        for qn, fn in self.graph.functions.items():
            conc = self.facts[qn]
            for (a, b), (line, col) in conc.lock_edges.items():
                edges.setdefault((a, b), (fn.path, line, col))
            by_pos = {
                (edge.line, edge.col): edge.target
                for edge in fn.resolved
            }
            for held, line, col in conc.held_calls:
                target = by_pos.get((line, col))
                if target is None:
                    continue
                for b in self.locks_trans.get(target, ()):
                    for a in held:
                        if a != b:
                            edges.setdefault(
                                (a, b), (fn.path, line, col)
                            )
        graph: Dict[str, Set[str]] = {}
        for a, b in edges:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
        # cycle detection via DFS back edges
        out: List[Finding] = []
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in graph}
        stack_path: List[str] = []
        reported: Set[FrozenSet[str]] = set()

        def dfs(n: str) -> None:
            color[n] = GRAY
            stack_path.append(n)
            for m in sorted(graph[n]):
                if color[m] == GRAY:
                    cycle = stack_path[stack_path.index(m):] + [m]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        path, line, col = edges.get(
                            (n, m), edges[(cycle[0], cycle[1])]
                        )
                        pretty = " -> ".join(
                            c.split(":", 1)[-1] for c in cycle
                        )
                        out.append(Finding(
                            code="RC103",
                            path=path,
                            line=line,
                            col=col,
                            symbol="<lock-order>",
                            message=(
                                "lock-acquisition-order cycle: "
                                f"{pretty}; two threads taking these "
                                "locks in opposite orders deadlock "
                                "under contention — pick one global "
                                "order (see engine/shards.py's "
                                "mutex-then-flock scheme)"
                            ),
                        ))
                elif color[m] == WHITE:
                    dfs(m)
            stack_path.pop()
            color[n] = BLACK

        for n in sorted(graph):
            if color[n] == WHITE:
                dfs(n)
        return out

    def rc104(self) -> List[Finding]:
        # class -> attr -> (async writes, thread writes)
        per_class: Dict[
            str, Dict[str, List[Tuple[FunctionNode, _WriteSite, str]]]
        ] = {}
        for qn, fn in self.graph.functions.items():
            if fn.class_name is None:
                continue
            if fn.symbol.endswith("__init__"):
                continue  # construction happens-before sharing
            contexts = []
            if qn in self.async_ctx:
                contexts.append("async")
            if qn in self.thread_ctx:
                contexts.append("thread")
            if not contexts:
                continue
            ckey = f"{fn.module}:{fn.class_name}"
            for w in self.facts[qn].attr_writes:
                for ctx in contexts:
                    per_class.setdefault(ckey, {}).setdefault(
                        w.attr, []
                    ).append((fn, w, ctx))
        out: List[Finding] = []
        for ckey, attrs in per_class.items():
            for attr, writes in attrs.items():
                ctxs = {ctx for _, _, ctx in writes}
                if not {"async", "thread"} <= ctxs:
                    continue
                unguarded = [
                    (fn, w) for fn, w, _ in writes if not w.guarded
                ]
                if not unguarded:
                    continue
                fn, w = unguarded[0]
                cls = ckey.split(":", 1)[-1]
                out.append(Finding(
                    code="RC104",
                    path=fn.path,
                    line=w.line,
                    col=w.col,
                    symbol=fn.symbol,
                    message=(
                        f"attribute self.{attr} of {cls} is written "
                        "from both coroutine context and worker-thread "
                        "context, and this write holds no lock — guard "
                        "every writer with one threading.Lock or "
                        "confine the attribute to a single context"
                    ),
                ))
        return out

    def findings(self) -> List[Finding]:
        out = self.rc101() + self.rc102() + self.rc103() + self.rc104()
        out.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return out


def concurrency_findings(graph: CallGraph) -> List[Finding]:
    """All RC1xx findings for a built call graph."""
    return ConcurrencyAnalysis(graph).findings()
