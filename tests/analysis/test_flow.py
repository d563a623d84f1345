"""GeminiFlow machinery: call resolution and the may-raise fixpoint.

These are unit tests for :mod:`repro.analysis.flow` itself — the rules
built on it are covered in ``test_flow_rules.py``. Fixtures are parsed
in-memory; multi-module cases build one :class:`FlowProject` over
several :class:`ModuleContext` objects, which is exactly how the rules
consume it.
"""

import ast
import textwrap

from repro.analysis.core import ModuleContext
from repro.analysis.flow import (
    FlowProject,
    enclosing_callable,
    project_for_context,
    single_module_project,
)


def _ctx(source, path="fixture.py"):
    source = textwrap.dedent(source)
    return ModuleContext(path=path, source=source, tree=ast.parse(source))


def _project(*sources):
    return FlowProject([_ctx(src, path=f"mod{i}.py")
                        for i, src in enumerate(sources)])


def _raises(project, qualname):
    func = next(f for f in project.functions if f.qualname == qualname)
    return func.raise_set


class TestDirectRaises:
    def test_explicit_raise_escapes(self):
        project = _project("""
            def f():
                raise ValueError("boom")
        """)
        assert _raises(project, "f") == {"ValueError"}

    def test_matching_handler_filters(self):
        project = _project("""
            def f():
                try:
                    raise ValueError("boom")
                except ValueError:
                    return None
        """)
        assert _raises(project, "f") == set()

    def test_unrelated_handler_does_not_filter(self):
        project = _project("""
            def f():
                try:
                    raise ValueError("boom")
                except TypeError:
                    return None
        """)
        assert _raises(project, "f") == {"ValueError"}

    def test_builtin_base_class_catches_subclass(self):
        # KeyError is caught by LookupError via the builtin MRO.
        project = _project("""
            def f():
                try:
                    raise KeyError("k")
                except LookupError:
                    return None
        """)
        assert _raises(project, "f") == set()

    def test_project_base_class_catches_subclass(self):
        project = _project("""
            class AppError(Exception):
                pass

            class SubError(AppError):
                pass

            def f():
                try:
                    raise SubError("boom")
                except AppError:
                    return None
        """)
        assert _raises(project, "f") == set()

    def test_unknown_class_assumed_exception_subclass(self):
        # ImportedError is not defined here; a broad Exception handler
        # must still count as catching it.
        project = _project("""
            def f():
                try:
                    raise ImportedError("boom")
                except Exception:
                    return None
        """)
        assert _raises(project, "f") == set()

    def test_bare_raise_rethrows_handler_types(self):
        project = _project("""
            def f():
                try:
                    g()
                except ValueError:
                    raise

            def g():
                raise ValueError("boom")
        """)
        assert _raises(project, "f") == {"ValueError"}

    def test_raise_of_captured_variable(self):
        project = _project("""
            def f():
                try:
                    g()
                except ValueError as err:
                    raise err

            def g():
                raise ValueError("boom")
        """)
        assert _raises(project, "f") == {"ValueError"}

    def test_bare_except_catches_everything(self):
        project = _project("""
            def f():
                try:
                    raise ValueError("boom")
                except:  # noqa: E722
                    return None
        """)
        assert _raises(project, "f") == set()


class TestPropagation:
    def test_callee_raises_flow_to_caller(self):
        project = _project("""
            def f():
                return g()

            def g():
                raise KeyError("k")
        """)
        assert _raises(project, "f") == {"KeyError"}

    def test_caller_side_handler_filters_callee_raises(self):
        project = _project("""
            def f():
                try:
                    return g()
                except KeyError:
                    return None

            def g():
                raise KeyError("k")
        """)
        assert _raises(project, "f") == set()

    def test_transitive_chain_converges(self):
        project = _project("""
            def a():
                return b()

            def b():
                return c()

            def c():
                raise RuntimeError("deep")
        """)
        assert _raises(project, "a") == {"RuntimeError"}

    def test_recursion_terminates(self):
        project = _project("""
            def f(n):
                if n:
                    return f(n - 1)
                raise ValueError("base")
        """)
        assert _raises(project, "f") == {"ValueError"}

    def test_unresolvable_callee_is_optimistic(self):
        project = _project("""
            def f():
                return some_imported_thing()
        """)
        assert _raises(project, "f") == set()

    def test_raise_witness_names_the_origin(self):
        project = _project("""
            def f():
                return g()

            def g():
                raise KeyError("k")
        """)
        assert project.raise_witness["KeyError"] == "g"


class TestMethodResolution:
    def test_self_call_resolves_through_inherited_base(self):
        project = _project(
            """
            class Base:
                def helper(self):
                    raise OSError("io")
            """,
            """
            class Child(Base):
                def entry(self):
                    return self.helper()
            """)
        assert _raises(project, "Child.entry") == {"OSError"}

    def test_super_call_resolves_to_base_method(self):
        project = _project("""
            class Base:
                def entry(self):
                    raise OSError("io")

            class Child(Base):
                def entry(self):
                    return super().entry()
        """)
        assert _raises(project, "Child.entry") == {"OSError"}

    def test_override_shadows_base_for_self_calls(self):
        project = _project("""
            class Base:
                def helper(self):
                    raise OSError("io")

            class Child(Base):
                def helper(self):
                    return None

                def entry(self):
                    return self.helper()
        """)
        assert _raises(project, "Child.entry") == set()

    def test_bare_class_call_resolves_to_init(self):
        project = _project("""
            class Widget:
                def __init__(self):
                    raise ValueError("bad widget")

            def f():
                return Widget()
        """)
        assert _raises(project, "f") == {"ValueError"}

    def test_cha_fallback_covers_untyped_attribute_calls(self):
        project = _project("""
            class Store:
                def fetch(self):
                    raise KeyError("k")

            def f(store):
                return store.fetch()
        """)
        assert _raises(project, "f") == {"KeyError"}

    def test_handle_request_gets_implicit_op_edges(self):
        # getattr(self, f"op_{name}") dispatch has no lexical call; the
        # project adds one edge per op_* method.
        project = _project("""
            class Server:
                def handle_request(self, request):
                    handler = getattr(self, "op_" + request.op)
                    return handler(request)

                def op_get(self, request):
                    raise LookupError("miss")
        """)
        assert _raises(project, "Server.handle_request") == {"LookupError"}


class TestAsyncReachability:
    def test_sync_helper_called_from_async_def_is_on_the_loop(self):
        project = _project("""
            async def serve():
                return load()

            def load():
                return 1
        """)
        reached = {f.qualname: entry
                   for f, entry in project.async_reachable().items()}
        assert reached["load"] == "serve"
        assert reached["serve"] == "serve"

    def test_unreached_function_is_off_the_loop(self):
        project = _project("""
            async def serve():
                return 1

            def offline():
                return 2
        """)
        reached = {f.qualname for f in project.async_reachable()}
        assert "offline" not in reached

    def test_enclosing_callable_sees_async_defs(self):
        ctx = _ctx("""
            async def f():
                open("p")
        """)
        call = next(n for n in ast.walk(ctx.tree)
                    if isinstance(n, ast.Call))
        owner = enclosing_callable(ctx, call)
        assert isinstance(owner, ast.AsyncFunctionDef)
        assert ctx.enclosing(call, ast.FunctionDef) is None


class TestBlockingPrimitives:
    def _primitives(self, source):
        project = _project(source)
        module = project.modules[0]
        out = []
        for func in project.functions:
            for site in func.call_sites:
                primitive = project.blocking_primitive(module, site)
                if primitive is not None:
                    out.append(primitive)
        return out

    def test_builtin_open_and_aliased_sleep(self):
        primitives = self._primitives("""
            import time as t

            def f():
                with open("p") as handle:
                    t.sleep(1)
        """)
        assert primitives == ["open", "time.sleep"]

    def test_subprocess_prefix_matches_any_member(self):
        primitives = self._primitives("""
            import subprocess

            def f():
                subprocess.run(["ls"])
        """)
        assert primitives == ["subprocess.run"]

    def test_dot_open_on_non_self_receiver(self):
        primitives = self._primitives("""
            def f(path):
                with path.open() as handle:
                    return handle.read()
        """)
        assert primitives == ["path.open"]

    def test_self_open_is_not_the_builtin(self):
        # ``self.open`` is a method of the enclosing class, not the
        # blocking builtin; the suffix heuristic must not fire on it.
        primitives = self._primitives("""
            class Store:
                def open(self):
                    return None

                def f(self):
                    return self.open()
        """)
        assert primitives == []


class TestProjectConstruction:
    def test_single_module_project_is_memoized(self):
        ctx = _ctx("def f():\n    return 1\n")
        assert single_module_project(ctx) is single_module_project(ctx)

    def test_fixture_path_degrades_to_single_module(self):
        # A path outside any source tree must not drag disk modules in.
        ctx = _ctx("def f():\n    return 1\n",
                   path="/nonexistent/fixture.py")
        project = project_for_context(ctx)
        assert [m.ctx for m in project.modules] == [ctx]

    def test_real_tree_anchor_loads_the_default_modules(self):
        from pathlib import Path
        wire = (Path(__file__).resolve().parents[2]
                / "src" / "repro" / "live" / "wire.py")
        ctx = _ctx(wire.read_text(encoding="utf-8"), path=str(wire))
        project = project_for_context(ctx)
        paths = {m.path for m in project.modules}
        assert len(paths) > 10
        assert any(p.endswith("node.py") for p in paths)
        # The anchor's in-memory source wins over its disk copy.
        assert sum(p.endswith("wire.py") for p in paths) == 1
