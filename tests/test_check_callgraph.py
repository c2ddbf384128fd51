"""Call-graph construction: resolution ladder, cycles, thread targets.

These tests pin the graph layer directly (no lint driver): which call
expressions resolve to which qualnames, that mutual recursion builds
both edges, and that the restricted dynamic-dispatch fallback refuses
ambiguous vocabulary.
"""

import ast
from textwrap import dedent

import pytest

from repro.check.callgraph import (
    AMBIGUOUS_METHODS,
    CallGraph,
    module_name_for,
)


def build(*mods):
    """``build(("m1.py", src), ...)`` -> CallGraph."""
    units = [
        (path, ast.parse(dedent(src), filename=path))
        for path, src in mods
    ]
    return CallGraph.build(units)


def edge_targets(graph, qualname):
    return sorted(e.target for e in graph.functions[qualname].resolved)


class TestModuleNames:
    def test_src_root_stripped(self):
        assert module_name_for("src/repro/engine/pool.py") == (
            "repro.engine.pool"
        )

    def test_package_init_is_the_package(self):
        assert module_name_for("src/repro/check/__init__.py") == (
            "repro.check"
        )

    def test_plain_path(self):
        assert module_name_for("m1.py") == "m1"


class TestResolution:
    def test_same_module_call(self):
        graph = build(("m.py", """\
            def helper(session, n):
                session.charge_elementwise(n)

            def caller(session, n):
                helper(session, n)
            """))
        assert edge_targets(graph, "m:caller") == ["m:helper"]

    def test_from_import_cross_module(self):
        graph = build(
            ("lib.py", """\
                def helper(session, n):
                    session.charge_elementwise(n)
                """),
            ("app.py", """\
                from lib import helper

                def caller(session, n):
                    helper(session, n)
                """),
        )
        assert edge_targets(graph, "app:caller") == ["lib:helper"]

    def test_module_alias_import(self):
        graph = build(
            ("lib.py", """\
                def helper(session, n):
                    session.charge_elementwise(n)
                """),
            ("app.py", """\
                import lib as kernels

                def caller(session, n):
                    kernels.helper(session, n)
                """),
        )
        assert edge_targets(graph, "app:caller") == ["lib:helper"]

    def test_self_method_through_base_class(self):
        # two definers kill the unique-name fallback, so this edge
        # can only come from the self/base-class walk
        graph = build(("m.py", """\
            class Other:
                def warm(self):
                    pass

            class Base:
                def warm(self):
                    pass

            class Child(Base):
                def run(self):
                    self.warm()
            """))
        assert edge_targets(graph, "m:Child.run") == ["m:Base.warm"]

    def test_constructor_typed_attribute(self):
        # 'restart' is defined twice, so only the inferred type of
        # self.pool can resolve the call
        graph = build(("m.py", """\
            class OtherPool:
                def restart(self):
                    pass

            class Pool:
                def restart(self):
                    pass

            class Server:
                def __init__(self):
                    self.pool = Pool()

                def bounce(self):
                    self.pool.restart()
            """))
        assert edge_targets(graph, "m:Server.bounce") == [
            "m:Pool.restart"
        ]

    def test_constructor_typed_local(self):
        graph = build(("m.py", """\
            class OtherPool:
                def restart(self):
                    pass

            class Pool:
                def restart(self):
                    pass

            def bounce():
                p = Pool()
                p.restart()
            """))
        assert edge_targets(graph, "m:bounce") == ["m:Pool.restart"]

    def test_mutual_recursion_builds_both_edges(self):
        graph = build(("m.py", """\
            def ping(session, n):
                if n:
                    pong(session, n - 1)

            def pong(session, n):
                if n:
                    ping(session, n - 1)
                session.charge_elementwise(n)
            """))
        assert edge_targets(graph, "m:ping") == ["m:pong"]
        assert edge_targets(graph, "m:pong") == ["m:ping"]


class TestDynamicDispatchFallback:
    def test_unique_method_name_resolves(self):
        graph = build(("m.py", """\
            class Pool:
                def restart_generation(self):
                    pass

            def use(p):
                p.restart_generation()
            """))
        assert edge_targets(graph, "m:use") == [
            "m:Pool.restart_generation"
        ]

    @pytest.mark.parametrize("name", ["sum", "cancelled", "exception"])
    def test_ambiguous_vocabulary_refused(self, name):
        # 'sum' collides with numpy's ndarray vocabulary: a wild edge
        # here would drag DistArray collectives into plain-array code;
        # 'cancelled' and 'exception' are the future/task API, which a
        # done-callback calls from a worker thread
        assert name in AMBIGUOUS_METHODS
        graph = build(("m.py", f"""\
            class Dist:
                def {name}(self):
                    pass

            def use(x):
                return x.{name}()
            """))
        assert edge_targets(graph, "m:use") == []

    def test_multiple_definers_refused(self):
        graph = build(("m.py", """\
            class A:
                def frobnicate(self):
                    pass

            class B:
                def frobnicate(self):
                    pass

            def use(x):
                x.frobnicate()
            """))
        assert edge_targets(graph, "m:use") == []


class TestThreadTargets:
    def test_thread_target_is_not_a_call_edge(self):
        graph = build(("m.py", """\
            import threading

            class App:
                def _worker(self):
                    pass

                def start(self):
                    t = threading.Thread(target=self._worker)
                    t.start()
            """))
        fn = graph.functions["m:App.start"]
        assert [t.target for t in fn.thread_targets] == [
            "m:App._worker"
        ]
        assert [t.registrar for t in fn.thread_targets] == ["Thread"]
        # registration is not execution: no call edge to the worker
        assert "m:App._worker" not in edge_targets(graph, "m:App.start")

    def test_submit_argument_escapes_to_thread(self):
        graph = build(("m.py", """\
            def job():
                pass

            def kick(executor):
                executor.submit(job)
            """))
        fn = graph.functions["m:kick"]
        assert [t.target for t in fn.thread_targets] == ["m:job"]

    def test_loop_registrar_is_neither(self):
        graph = build(("m.py", """\
            def notify():
                pass

            def wake(loop):
                loop.call_soon_threadsafe(notify)
            """))
        fn = graph.functions["m:wake"]
        assert fn.thread_targets == []
        assert edge_targets(graph, "m:wake") == []
