"""Unit tests for the geminilint visitor core and suppression engine."""

import ast
import textwrap

import pytest

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    all_rules,
    analyze_paths,
    analyze_source,
    iter_python_files,
    register_rule,
)
from repro.analysis.flow import single_module_project
from repro.analysis.rules import WallClockAndGlobalRandomness


def run_gem001(source):
    return analyze_source(textwrap.dedent(source),
                          rules=[WallClockAndGlobalRandomness()])


class TestRegistry:
    def test_all_rules_registered(self):
        assert sorted(all_rules()) == [
            "GEM000",
            "GEM001", "GEM002", "GEM003", "GEM004", "GEM005", "GEM006",
            "GEM007", "GEM008", "GEM009", "GEM010", "GEM011", "GEM012",
            "GEM013", "GEM014",
        ]

    def test_duplicate_code_rejected(self):
        class Clash(Rule):
            code = "GEM001"

        with pytest.raises(ValueError, match="duplicate"):
            register_rule(Clash)

    def test_rules_have_summaries(self):
        for cls in all_rules().values():
            assert cls.summary


class TestModuleContext:
    def make(self, source):
        source = textwrap.dedent(source)
        return ModuleContext("<t>", source, ast.parse(source))

    def test_parent_links(self):
        ctx = self.make("""
            def f():
                return 1
        """)
        func = ctx.tree.body[0]
        ret = func.body[0]
        assert ctx.parent(ret) is func
        assert ctx.parent(ctx.tree) is None

    def test_enclosing_function_and_class(self):
        ctx = self.make("""
            class C:
                def method(self):
                    x = 1
        """)
        cls = ctx.tree.body[0]
        method = cls.body[0]
        assign = method.body[0]
        assert ctx.enclosing(assign, ast.FunctionDef) is method
        assert ctx.enclosing_class(assign) is cls
        assert ctx.enclosing(cls, ast.FunctionDef) is None

    def test_is_generator_ignores_nested_defs(self):
        ctx = self.make("""
            def outer():
                def inner():
                    yield 1
                return inner
        """)
        outer = ctx.tree.body[0]
        inner = outer.body[0]
        functions = single_module_project(ctx).modules[0].by_node
        assert not functions[outer].is_generator
        assert functions[inner].is_generator


class TestSuppressions:
    def test_same_line_justified_suppression(self):
        findings = run_gem001("""
            import time  # geminilint: disable=GEM001 -- fixture needs it
        """)
        assert findings == []

    def test_preceding_line_justified_suppression(self):
        findings = run_gem001("""
            # geminilint: disable=GEM001 -- fixture needs it
            import time
        """)
        assert findings == []

    def test_two_lines_above_does_not_suppress(self):
        findings = run_gem001("""
            # geminilint: disable=GEM001 -- too far away
            x = 1
            import time
        """)
        assert [f.code for f in findings] == ["GEM001"]

    def test_bare_disable_reports_gem000_and_keeps_finding(self):
        findings = run_gem001("""
            import time  # geminilint: disable=GEM001
        """)
        assert sorted(f.code for f in findings) == ["GEM000", "GEM001"]

    def test_wrong_code_does_not_suppress(self):
        findings = run_gem001("""
            import time  # geminilint: disable=GEM002 -- wrong rule
        """)
        assert [f.code for f in findings] == ["GEM001"]

    def test_multi_code_suppression(self):
        findings = run_gem001("""
            import time  # geminilint: disable=GEM002,GEM001 -- both
        """)
        assert findings == []

    def test_magic_text_inside_string_is_inert(self):
        findings = run_gem001("""
            doc = "# geminilint: disable=GEM001"
            import time
        """)
        assert [f.code for f in findings] == ["GEM001"]


class TestDrivers:
    def test_finding_str_is_clickable_location(self):
        finding = Finding(code="GEM001", message="m", path="a.py",
                          line=3, col=4)
        assert str(finding) == "a.py:3:5: GEM001 m"

    def test_analyze_source_sorts_findings(self):
        findings = run_gem001("""
            import datetime
            import time
        """)
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_iter_python_files_expands_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "b.txt").write_text("not python\n")
        files = iter_python_files([str(tmp_path / "pkg")])
        assert [f.name for f, __ in files] == ["a.py"]

    def test_analyze_paths_clean_tree(self, tmp_path):
        (tmp_path / "ok.py").write_text("def f(rng):\n    return rng.random()\n")
        result = analyze_paths([str(tmp_path)])
        assert result.ok
        assert result.files_checked == 1

    def test_analyze_paths_counts_by_code(self, tmp_path):
        (tmp_path / "bad.py").write_text("import time\nimport datetime\n")
        result = analyze_paths([str(tmp_path)])
        assert not result.ok
        assert result.counts_by_code() == {"GEM001": 2}

    def test_analyze_paths_records_syntax_errors(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        result = analyze_paths([str(tmp_path)])
        assert not result.ok
        assert result.findings == []
        assert len(result.errors) == 1

    def test_analyze_paths_unknown_select_rejected(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        with pytest.raises(ValueError, match="GEM999"):
            analyze_paths([str(tmp_path)], select=["GEM999"])
