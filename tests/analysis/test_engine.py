"""The lint engine itself: findings, the syntax-error finding, rendering.

The rule is stubbed so these tests pin the *engine* semantics —
locations, sorting, output shape — independent of what the DET rules
flag.
"""

from __future__ import annotations

import ast

from repro.analysis.lint import Finding, Rule, lint_sources, render_human

def _flag_bad(files):
    """A stub rule: flags every call to a function named ``bad()``."""
    for path, source in files.items():
        if source.tree is None:
            continue
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "bad"
            ):
                yield Finding(path, node.lineno, "DET001", "call to bad()")


STUB_RULE = Rule(id="DET001", title="stub", check=_flag_bad)


class TestFindings:
    def test_clean_file_is_ok(self):
        result = lint_sources({"src/repro/m.py": "x = 1\n"}, rules=[STUB_RULE])
        assert result.ok
        assert result.n_files == 1
        assert result.rules == ("DET001",)

    def test_finding_reported_with_location(self):
        result = lint_sources(
            {"src/repro/m.py": "x = 1\nbad()\n"}, rules=[STUB_RULE]
        )
        assert not result.ok
        (finding,) = result.findings
        assert finding.path == "src/repro/m.py"
        assert finding.line == 2
        assert finding.rule == "DET001"
        assert finding.format() == "src/repro/m.py:2: DET001 call to bad()"

    def test_syntax_error_is_lnt000_not_a_crash(self):
        result = lint_sources({"src/repro/m.py": "def f(:\n"}, rules=[STUB_RULE])
        assert not result.ok
        assert [f.rule for f in result.findings] == ["LNT000"]


class TestRendering:
    def test_render_human_ok(self):
        result = lint_sources({"src/repro/m.py": "x = 1\n"}, rules=[STUB_RULE])
        assert "OK" in render_human(result)

    def test_render_human_lists_findings(self):
        result = lint_sources({"src/repro/m.py": "bad()\n"}, rules=[STUB_RULE])
        text = render_human(result)
        assert "1 problem(s)" in text
        assert "src/repro/m.py:1: DET001" in text
