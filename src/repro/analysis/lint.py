"""The contract-lint engine: rules in, findings out.

The engine is rule-agnostic: it parses every ``.py`` file under
``src/repro`` once and hands the whole file set to each registered rule
(a rule may pick any module out of the set — DET006 reads only the
``EXECUTION_MODES`` table in ``mapreduce/executors.py``), then reports
every finding, sorted.  There is no suppression: a finding is fixed, or
the build fails.  A file that does not parse is an ``LNT000`` finding,
not a crash.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import ConfigError

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "SourceFile",
    "find_repo_root",
    "lint_sources",
    "render_human",
    "run_lint",
]

#: The directory tree a repo run lints, repo-relative.
TARGET = "src/repro"


@dataclass(frozen=True, order=True)
class Finding:
    """One contract violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True)
class SourceFile:
    """One parsed source file as the rules see it."""

    path: str  # repo-relative posix path
    tree: ast.Module | None  # None when the file does not parse


@dataclass(frozen=True)
class Rule:
    """One pluggable contract rule.

    ``check`` receives the *whole* file set (``path -> SourceFile``) and
    yields findings; single-file rules just iterate it, a rule about one
    module (DET006) looks that module up.
    """

    id: str
    title: str
    check: Callable[[Mapping[str, SourceFile]], Iterable[Finding]]


@dataclass(frozen=True)
class LintResult:
    """Everything one lint run produced."""

    findings: tuple[Finding, ...]  # sorted
    n_files: int
    rules: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def lint_sources(
    files: Mapping[str, str],
    rules: Sequence[Rule] | None = None,
) -> LintResult:
    """Lint an in-memory file set (``path -> source text``).

    This is the seam the fixture tests drive: paths are taken at face
    value (rules scope on them), no filesystem involved.
    """
    if rules is None:
        from repro.analysis.rules import ALL_RULES

        rules = ALL_RULES

    sources: dict[str, SourceFile] = {}
    findings: list[Finding] = []
    for path in sorted(files):
        try:
            tree = ast.parse(files[path], filename=path)
        except SyntaxError as err:
            tree = None
            findings.append(
                Finding(path, err.lineno or 0, "LNT000", f"syntax error: {err.msg}")
            )
        sources[path] = SourceFile(path, tree)
    for rule in rules:
        findings.extend(rule.check(sources))
    return LintResult(
        findings=tuple(sorted(findings)),
        n_files=len(sources),
        rules=tuple(rule.id for rule in rules),
    )


def run_lint(root: Path) -> LintResult:
    """Lint every ``.py`` file under ``root/src/repro``.

    A ``root`` without that directory is a ``ConfigError``: linting no
    files would read as a clean tree.
    """
    root = Path(root)
    base = root / TARGET
    if not base.is_dir():
        raise ConfigError(f"{base} is not a directory")
    files = {
        path.relative_to(root).as_posix(): path.read_text()
        for path in sorted(base.rglob("*.py"))
    }
    return lint_sources(files)


def find_repo_root() -> Path:
    """Best-effort repo root for the installed-package CLI path.

    From a source tree, ``src/repro/analysis/lint.py`` sits three levels
    below the root; from site-packages that walk lands nowhere useful, so
    fall back to the current directory (what CI and humans run from).
    """
    here = Path(__file__).resolve()
    candidates = [here.parents[3]] if len(here.parents) >= 4 else []
    for candidate in (*candidates, Path.cwd()):
        if (candidate / TARGET).is_dir():
            return candidate
    return Path.cwd()


def render_human(result: LintResult) -> str:
    if result.ok:
        return (
            f"contracts lint: OK ({result.n_files} files, "
            f"{len(result.rules)} rules)"
        )
    lines = [f"contracts lint: {len(result.findings)} problem(s)"]
    lines.extend(f"  - {finding.format()}" for finding in result.findings)
    return "\n".join(lines)
