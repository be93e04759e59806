"""The contract lint as a tier-1 test: the repo must stay clean.

Mirrors ``tests/test_docs.py``: the same checks CI runs as the
``static-analysis`` lane fail the ordinary test run too, so a stray
``random.*`` call or an unpaired ``install_state`` never survives to a
parity test three PRs later.  Also pins the one entry point,
``repro-kf lint``, and, when ``ruff`` is on PATH, the generic-lint
configuration.
"""

from __future__ import annotations

import re
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.cli import main
from repro.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestRepoIsClean:
    def test_contract_lint_passes_on_the_repo(self):
        result = run_lint(REPO_ROOT)
        assert result.findings == (), "\n".join(
            finding.format() for finding in result.findings
        )

    def test_all_six_rules_ran(self):
        result = run_lint(REPO_ROOT)
        assert result.rules == (
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "DET005",
            "DET006",
        )
        # The scan actually covered the package, not an empty dir.
        assert result.n_files > 50


def _tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


class TestCLI:
    def test_ok_on_the_repo(self, capsys):
        assert main(["lint", "--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"contracts lint: OK \(\d+ files, 6 rules\)\n", out)

    def test_violation_exits_1_with_its_location(self, tmp_path, capsys):
        root = _tree(tmp_path, {"src/repro/m.py": "x = 1\nimport random\n"})
        assert main(["lint", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "contracts lint: 1 problem(s)" in out
        assert "  - src/repro/m.py:2: DET001 " in out

    def test_syntax_error_is_lnt000(self, tmp_path, capsys):
        root = _tree(tmp_path, {"src/repro/m.py": "def f(:\n"})
        assert main(["lint", "--root", str(root)]) == 1
        assert "src/repro/m.py:1: LNT000 syntax error" in capsys.readouterr().out

    def test_missing_root_is_a_usage_error(self, tmp_path, capsys):
        root = tmp_path / "nonexistent"
        assert main(["lint", "--root", str(root)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro-kf lint: error: {root / 'src' / 'repro'} is not a directory\n"
        )

    def test_root_without_src_repro_is_a_usage_error(self, tmp_path, capsys):
        root = _tree(tmp_path, {"src/other/m.py": "import random\n"})
        with pytest.raises(ConfigError, match="src/repro is not a directory"):
            run_lint(root)
        assert main(["lint", "--root", str(root)]) == 2
        assert "repro-kf lint: error:" in capsys.readouterr().err

    def test_root_is_the_only_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--help"])
        assert exit_info.value.code == 0
        options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert options == {"--help", "--root"}


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
class TestRuff:
    def test_ruff_check_passes(self):
        proc = subprocess.run(
            ["ruff", "check", "."],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
