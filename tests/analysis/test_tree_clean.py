"""The shipped tree must satisfy its own analyzer.

This is the acceptance gate for the PR and the regression net for the
future: any change that reintroduces a wall clock, an unguarded
callback, a stamping bug, or an unjustified suppression fails here
before it ever reaches CI's dedicated analysis job.
"""

from pathlib import Path

from repro.analysis.core import analyze_paths
from repro.analysis.reporters import render_text

REPO = Path(__file__).resolve().parents[2]
SRC = str(REPO / "src")
TESTS = str(REPO / "tests")
EXAMPLES = str(REPO / "examples")
TOOLS = str(REPO / "tools")


def test_src_tree_is_clean():
    result = analyze_paths([SRC])
    assert result.files_checked > 50
    assert result.ok, "\n" + render_text(result)


def test_full_tree_including_tests_is_clean():
    # CI and the pre-commit hook sweep src/ and tests/ together; the
    # suite pins the same contract so a dirty test fixture fails here
    # before the pre-commit hook ever sees it.
    result = analyze_paths([SRC, TESTS])
    assert result.files_checked > 150
    assert result.ok, "\n" + render_text(result)


def test_examples_and_tools_are_clean():
    # CI and the pre-commit hook sweep these with src/ and tests/.
    # benchmarks/ (known GEM001/GEM008 findings) and perfbench/ (the
    # repo benchmark's own code) are not swept.
    result = analyze_paths([EXAMPLES, TOOLS])
    assert result.files_checked >= 8
    assert result.ok, "\n" + render_text(result)
