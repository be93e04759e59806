"""The contract-lint engine: sources in, findings out.

The engine is rule-agnostic: it parses every tracked source file once
(AST + suppression pragmas), hands the whole file set to each registered
rule (rules may reason across modules — DET006 cross-references
``fusion/base.py`` against ``endtoend.py``), then applies the two
suppression channels and reports what survives.

**Suppression channels** — both are themselves linted, so a suppression
can never silently outlive the finding it excused:

- an inline pragma on the offending line::

      x = hash(key)  # det: ignore[DET002] -- prototyping, not shipped

  The reason after ``--`` is mandatory (a bare pragma is an ``LNT001``
  finding), and a pragma whose rule no longer fires on that line is a
  *stale suppression* (``LNT002``).
- a committed baseline file (``tools/contracts_lint_baseline.json``),
  keyed on ``(rule, path, message)`` — line-insensitive, so unrelated
  edits don't churn it.  A baseline entry that no longer matches any
  finding is a stale suppression too (``LNT003``).  The repo ships with
  an **empty** baseline; the file exists so a future emergency has a
  paved road that decays loudly instead of rotting quietly.

Meta-findings (``LNT000`` syntax error, ``LNT00x`` suppression hygiene)
cannot themselves be suppressed.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "Finding",
    "LintResult",
    "Pragma",
    "Rule",
    "SourceFile",
    "DEFAULT_BASELINE",
    "collect_sources",
    "find_repo_root",
    "lint_sources",
    "load_baseline",
    "parse_source",
    "render_human",
    "render_json",
    "run_lint",
]

#: Where the committed baseline lives, repo-relative.
DEFAULT_BASELINE = "tools/contracts_lint_baseline.json"

#: The directory tree the repo run lints, repo-relative.
DEFAULT_TARGET = "src/repro"

#: ``baseline["format"]`` we read and write.
BASELINE_FORMAT = 1


@dataclass(frozen=True, order=True)
class Finding:
    """One contract violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def key(self) -> tuple[str, str, str]:
        """The baseline identity: line-insensitive, so the baseline does
        not churn when unrelated edits move a finding up or down."""
        return (self.rule, self.path, self.message)

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Pragma:
    """One ``# det: ignore[...]`` suppression comment."""

    line: int
    rules: tuple[str, ...]
    reason: str


@dataclass(frozen=True)
class SourceFile:
    """One parsed source file as the rules see it."""

    path: str  # repo-relative posix path
    text: str
    tree: ast.Module | None  # None when the file does not parse
    pragmas: tuple[Pragma, ...]


@dataclass(frozen=True)
class Rule:
    """One pluggable contract rule.

    ``check`` receives the *whole* file set (``path -> SourceFile``) and
    yields findings; single-file rules just iterate it, cross-module
    rules (DET006) correlate entries.
    """

    id: str
    title: str
    check: Callable[[Mapping[str, SourceFile]], Iterable[Finding]]


@dataclass(frozen=True)
class LintResult:
    """Everything one lint run produced."""

    findings: tuple[Finding, ...]  # unsuppressed, sorted
    suppressed: tuple[Finding, ...]  # silenced by pragma or baseline
    n_files: int
    rules: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


# --------------------------------------------------------------------------
# Pragma parsing
# --------------------------------------------------------------------------

_PRAGMA = re.compile(
    r"#\s*det:\s*ignore\[(?P<rules>[^\]]*)\](?:\s*--\s*(?P<reason>.*\S))?"
)
#: Anything that looks like it tried to be a pragma; used to flag typos
#: (a misspelled pragma that silently suppresses nothing is worse than a
#: loud error).
_PRAGMA_HINT = re.compile(r"#\s*det\s*:")

_RULE_ID = re.compile(r"^(DET|LNT)\d{3}$")


def _comment_tokens(text: str) -> list[tuple[int, str]]:
    """``(line, comment_text)`` for every real comment token.

    Tokenizing (rather than line-scanning) keeps pragma-shaped text in
    docstrings and string literals — like this module's own examples —
    from being treated as live suppressions.
    """
    comments: list[tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparseable source: the ast pass reports LNT000; no pragmas.
        pass
    return comments


def _parse_pragmas(
    path: str, text: str
) -> tuple[tuple[Pragma, ...], list[Finding]]:
    pragmas: list[Pragma] = []
    findings: list[Finding] = []
    for lineno, line in _comment_tokens(text):
        match = _PRAGMA.search(line)
        if match is None:
            if _PRAGMA_HINT.search(line):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "LNT001",
                        "malformed pragma; expected "
                        "'# det: ignore[DET00x] -- reason'",
                    )
                )
            continue
        rules = tuple(
            token.strip() for token in match.group("rules").split(",") if token.strip()
        )
        reason = (match.group("reason") or "").strip()
        bad_ids = [r for r in rules if not _RULE_ID.fullmatch(r)]
        if not rules or bad_ids:
            findings.append(
                Finding(
                    path,
                    lineno,
                    "LNT001",
                    f"pragma names no valid rule ids ({list(rules)!r}); "
                    "expected e.g. '# det: ignore[DET001] -- reason'",
                )
            )
            continue
        if not reason:
            findings.append(
                Finding(
                    path,
                    lineno,
                    "LNT001",
                    f"pragma suppressing {', '.join(rules)} has no reason; "
                    "the '-- why' clause is mandatory",
                )
            )
            # Reason-less pragmas do not suppress: fall through without
            # registering it.
            continue
        pragmas.append(Pragma(line=lineno, rules=rules, reason=reason))
    return tuple(pragmas), findings


def parse_source(path: str, text: str) -> tuple[SourceFile, list[Finding]]:
    """Parse one file; syntax errors become LNT000 findings, not crashes."""
    pragmas, findings = _parse_pragmas(path, text)
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as err:
        findings.append(
            Finding(path, err.lineno or 0, "LNT000", f"syntax error: {err.msg}")
        )
        return SourceFile(path, text, None, pragmas), findings
    return SourceFile(path, text, tree, pragmas), findings


# --------------------------------------------------------------------------
# The lint pipeline
# --------------------------------------------------------------------------


def lint_sources(
    files: Mapping[str, str],
    rules: Sequence[Rule] | None = None,
    baseline: Sequence[tuple[str, str, str]] = (),
    baseline_path: str = DEFAULT_BASELINE,
) -> LintResult:
    """Lint an in-memory file set (``path -> source text``).

    This is the seam the fixture tests drive: paths are taken at face
    value (rules scope on them), no filesystem involved.  ``baseline``
    is a sequence of :meth:`Finding.key` tuples; stale entries are
    reported as LNT003 findings against ``baseline_path``.
    """
    if rules is None:
        from repro.analysis.rules import ALL_RULES

        rules = ALL_RULES

    sources: dict[str, SourceFile] = {}
    meta: list[Finding] = []
    for path in sorted(files):
        source, errors = parse_source(path, files[path])
        sources[path] = source
        meta.extend(errors)

    raw: list[Finding] = []
    for rule in rules:
        raw.extend(rule.check(sources))

    # Channel 1: inline pragmas (same line, rule listed, reason present).
    pragma_used: set[tuple[str, int, str]] = set()
    suppressed: list[Finding] = []
    kept: list[Finding] = []
    for finding in sorted(raw):
        source = sources.get(finding.path)
        pragma = None
        if source is not None:
            for candidate in source.pragmas:
                if candidate.line == finding.line and finding.rule in candidate.rules:
                    pragma = candidate
                    break
        if pragma is not None:
            pragma_used.add((finding.path, pragma.line, finding.rule))
            suppressed.append(finding)
        else:
            kept.append(finding)

    # A pragma'd rule id that no longer fires is itself an error: stale
    # suppressions rot into blanket permissions.  This includes rule ids
    # no rule in this run owns — a well-formed but wrong id (DET999)
    # must not be silently inert.
    for path in sorted(sources):
        for pragma in sources[path].pragmas:
            for rule_id in pragma.rules:
                if (path, pragma.line, rule_id) not in pragma_used:
                    meta.append(
                        Finding(
                            path,
                            pragma.line,
                            "LNT002",
                            f"stale suppression: {rule_id} no longer fires "
                            "on this line; remove the pragma",
                        )
                    )

    # Channel 2: the committed baseline, keyed line-insensitively.
    baseline_keys = [tuple(entry) for entry in baseline]
    baseline_set = set(baseline_keys)
    matched: set[tuple[str, str, str]] = set()
    remaining: list[Finding] = []
    for finding in kept:
        if finding.key() in baseline_set:
            matched.add(finding.key())
            suppressed.append(finding)
        else:
            remaining.append(finding)
    for key in baseline_keys:
        if key not in matched:
            rule_id, path, message = key
            meta.append(
                Finding(
                    baseline_path,
                    0,
                    "LNT003",
                    f"stale baseline suppression: {rule_id} {path}: "
                    f"{message!r} no longer fires; remove the entry",
                )
            )

    return LintResult(
        findings=tuple(sorted(remaining + meta)),
        suppressed=tuple(sorted(suppressed)),
        n_files=len(sources),
        rules=tuple(rule.id for rule in rules),
    )


def collect_sources(root: Path, target: str = DEFAULT_TARGET) -> dict[str, str]:
    """Every ``.py`` file under ``root/target``, keyed repo-relative."""
    base = root / target
    files: dict[str, str] = {}
    for path in sorted(base.rglob("*.py")):
        files[path.relative_to(root).as_posix()] = path.read_text()
    return files


def load_baseline(path: Path) -> list[tuple[str, str, str]]:
    """Read the committed baseline's suppression keys."""
    data = json.loads(path.read_text())
    entries = data.get("suppressions", []) if isinstance(data, dict) else data
    return [(entry["rule"], entry["path"], entry["message"]) for entry in entries]


def run_lint(
    root: Path,
    baseline_path: Path | None = None,
    rules: Sequence[Rule] | None = None,
) -> LintResult:
    """Lint the repo at ``root`` (the CI / tier-1 entry point)."""
    root = Path(root)
    if baseline_path is None:
        candidate = root / DEFAULT_BASELINE
        baseline_path = candidate if candidate.exists() else None
    baseline = load_baseline(baseline_path) if baseline_path is not None else []
    baseline_rel = (
        baseline_path.relative_to(root).as_posix()
        if baseline_path is not None and baseline_path.is_relative_to(root)
        else str(baseline_path or DEFAULT_BASELINE)
    )
    return lint_sources(
        collect_sources(root),
        rules=rules,
        baseline=baseline,
        baseline_path=baseline_rel,
    )


def find_repo_root(start: Path | None = None) -> Path:
    """Best-effort repo root for the installed-package CLI path.

    From a source tree, ``src/repro/analysis/lint.py`` sits three levels
    below the root; from site-packages that walk lands nowhere useful, so
    fall back to the current directory (what CI and humans run from).
    """
    candidates = []
    here = Path(__file__).resolve()
    if len(here.parents) >= 4:
        candidates.append(here.parents[3])
    if start is not None:
        candidates.append(Path(start))
    candidates.append(Path.cwd())
    for candidate in candidates:
        if (candidate / DEFAULT_TARGET).is_dir():
            return candidate
    return Path.cwd()


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


def render_human(result: LintResult) -> str:
    if result.ok:
        return (
            f"contracts lint: OK ({result.n_files} files, "
            f"{len(result.rules)} rules"
            + (f", {len(result.suppressed)} suppressed" if result.suppressed else "")
            + ")"
        )
    lines = [f"contracts lint: {len(result.findings)} problem(s)"]
    lines.extend(f"  - {finding.format()}" for finding in result.findings)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    return json.dumps(
        {
            "ok": result.ok,
            "n_files": result.n_files,
            "rules": list(result.rules),
            "findings": [asdict(finding) for finding in result.findings],
            "suppressed": [asdict(finding) for finding in result.suppressed],
        },
        indent=2,
    )
