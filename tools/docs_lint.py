"""Docs lint: keep the documentation front door from rotting.

Six classes of drift this catches, all run in CI and in the tier-1
suite (``tests/test_docs.py``):

1. **Dead relative links** — every ``[text](target)`` in the tracked
   markdown files must resolve to a file or directory in the tree
   (anchors stripped; absolute URLs skipped).
2. **CLI docs out of sync** — every ``repro-kf <subcommand>`` mention in
   the docs must name a real subcommand of the argparse parser, every
   backend spelling in the one mode table
   (``repro.mapreduce.executors.EXECUTION_MODES``) must be documented in
   the README backend table, and the README must mention every
   subcommand the CLI actually exposes.
3. **Benchmark entrypoints out of sync** — every ``benchmarks/<x>.py``
   script the docs mention must exist (the 25 ad-hoc ``bench_fig*``
   scripts were replaced by the registry runner), and the README must
   document the ``benchmarks/run.py`` entrypoint itself plus the
   perf-trajectory surface (``benchmarks/compare.py`` and the
   ``--compare`` regression gate).
4. **Tool entrypoints out of sync** — every lint entrypoint under
   ``tools/`` (docs lint, contracts lint) must be mentioned somewhere in
   the tracked docs, and every ``tools/<x>.py`` the docs mention must
   exist.
5. **Scale presets out of sync** — every ``--scale`` preset the CLI
   exposes (``repro.cli._SCALES``) must have a row in the README
   scale-preset table, so adding a tier without documenting its memory
   and wall-clock expectations fails CI.
6. **Documented names that no longer exist** — every back-ticked
   ``repro.<dotted.path>`` in the tracked docs must resolve by import +
   ``getattr``, so a change that deletes or moves a module, function or
   constant cannot leave it documented.

Usage::

    python tools/docs_lint.py        # exits non-zero with a report
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Markdown files whose relative links must resolve.
LINKED_DOCS = (
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/SCALING.md",
    "ROADMAP.md",
    "src/repro/mapreduce/README.md",
)

#: Docs whose ``repro-kf <subcommand>`` mentions must match the parser.
CLI_DOCS = ("README.md", "docs/ARCHITECTURE.md", "docs/SCALING.md")

#: Docs whose ``benchmarks/<script>.py`` mentions must name real files.
BENCH_DOCS = CLI_DOCS + ("ROADMAP.md", "src/repro/mapreduce/README.md")

#: Docs that may satisfy the tool-entrypoint documentation requirement.
TOOL_DOCS = CLI_DOCS + ("ROADMAP.md",)

#: Lint entrypoints that must stay documented: an undocumented checker
#: is a checker nobody runs locally before CI tells them about it.
REQUIRED_TOOLS = ("tools/docs_lint.py", "tools/contracts_lint.py")

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CLI_MENTION = re.compile(r"repro-kf\s+([a-z][a-z0-9_-]*)")
_BENCH_SCRIPT = re.compile(r"benchmarks/([A-Za-z0-9_]+\.py)")
_TOOL_SCRIPT = re.compile(r"tools/([A-Za-z0-9_]+\.py)")
#: A back-tick followed by a dotted path rooted at the package; whatever
#: trails the path inside the back-ticks (``()``, arguments) is ignored.
_DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")


def check_links(root: Path = REPO_ROOT) -> list[str]:
    """Every relative markdown link resolves to an existing path."""
    errors: list[str] = []
    for name in LINKED_DOCS:
        doc = root / name
        if not doc.exists():
            errors.append(f"{name}: tracked doc is missing")
            continue
        for target in _LINK.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (doc.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                errors.append(f"{name}: dead link -> {target}")
    return errors


def _cli_surface() -> tuple[set[str], set[str]]:
    """(subcommands, backend spellings) from the code."""
    from repro.cli import _build_parser
    from repro.mapreduce.executors import EXECUTION_MODES

    import argparse

    subcommands: set[str] = set()
    for action in _build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            subcommands.update(action.choices)
    return subcommands, set(EXECUTION_MODES)


def check_cli_sync(root: Path = REPO_ROOT) -> list[str]:
    """Doc'd subcommands exist; real subcommands and backends are doc'd."""
    errors: list[str] = []
    subcommands, backends = _cli_surface()

    mentioned: set[str] = set()
    for name in CLI_DOCS:
        doc = root / name
        if not doc.exists():
            errors.append(f"{name}: tracked doc is missing")
            continue
        text = doc.read_text()
        for token in _CLI_MENTION.findall(text):
            mentioned.add(token)
            if token not in subcommands:
                errors.append(
                    f"{name}: documents 'repro-kf {token}' but the CLI has "
                    f"no such subcommand (has: {sorted(subcommands)})"
                )

    readme_path = root / "README.md"
    if not readme_path.exists():
        # Already reported as a missing tracked doc above.
        return errors
    readme = readme_path.read_text()
    for subcommand in sorted(subcommands - mentioned):
        errors.append(
            f"README.md: CLI subcommand {subcommand!r} is undocumented"
        )
    for backend in sorted(backends):
        if f"`{backend}`" not in readme:
            errors.append(
                f"README.md: backend {backend!r} missing from the backend table"
            )
    return errors


def check_bench_sync(root: Path = REPO_ROOT) -> list[str]:
    """Doc'd benchmark scripts exist; the runner itself is documented."""
    errors: list[str] = []
    for name in BENCH_DOCS:
        doc = root / name
        if not doc.exists():
            # Already reported by check_links for tracked docs.
            continue
        for script in sorted(set(_BENCH_SCRIPT.findall(doc.read_text()))):
            if not (root / "benchmarks" / script).exists():
                errors.append(
                    f"{name}: references benchmarks/{script}, which does "
                    "not exist (bench cases live in the registry now)"
                )
    readme_path = root / "README.md"
    if readme_path.exists():
        readme = readme_path.read_text()
        # The perf-trajectory surface must stay documented alongside the
        # runner itself: an ungated benchmark is a number nobody trusts.
        for token, what in (
            ("benchmarks/run.py", "the benchmark runner entrypoint"),
            ("benchmarks/compare.py", "the perf-trajectory comparator"),
            ("--compare", "the baseline regression gate flag"),
        ):
            if token not in readme:
                errors.append(f"README.md: {what} {token} is undocumented")
    return errors


def check_tool_sync(root: Path = REPO_ROOT) -> list[str]:
    """Doc'd tools exist; the required lint entrypoints are documented."""
    errors: list[str] = []
    mentioned: set[str] = set()
    for name in TOOL_DOCS:
        doc = root / name
        if not doc.exists():
            # Already reported by check_links for tracked docs.
            continue
        for script in sorted(set(_TOOL_SCRIPT.findall(doc.read_text()))):
            mentioned.add(f"tools/{script}")
            if not (root / "tools" / script).exists():
                errors.append(
                    f"{name}: references tools/{script}, which does not exist"
                )
    for tool in REQUIRED_TOOLS:
        if not (root / tool).exists():
            errors.append(f"{tool}: required lint entrypoint is missing")
        elif tool not in mentioned:
            errors.append(
                f"{tool}: lint entrypoint is undocumented (mention it in "
                f"one of {TOOL_DOCS})"
            )
    return errors


def check_scale_sync(root: Path = REPO_ROOT) -> list[str]:
    """Every CLI scale preset has a row in the README scale table."""
    from repro.cli import _SCALES

    readme_path = root / "README.md"
    if not readme_path.exists():
        # Already reported as a missing tracked doc by check_links.
        return []
    readme = readme_path.read_text()
    errors: list[str] = []
    for scale in sorted(_SCALES):
        # A table row starting "| `tiny`" — a prose mention is not enough;
        # the table is where RSS/wall-clock expectations live.
        if not re.search(rf"^\|\s*`{re.escape(scale)}`", readme, re.M):
            errors.append(
                f"README.md: scale preset {scale!r} has no row in the "
                "scale-preset table"
            )
    return errors


def _resolves(dotted: str) -> bool:
    """True when ``dotted`` names a module, or an attribute chain off one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def check_dotted_names(root: Path = REPO_ROOT) -> list[str]:
    """Every back-ticked ``repro.<dotted.path>`` in the docs still exists."""
    errors: list[str] = []
    for name in LINKED_DOCS:
        doc = root / name
        if not doc.exists():
            # Already reported by check_links for tracked docs.
            continue
        for dotted in sorted(set(_DOTTED_NAME.findall(doc.read_text()))):
            if not _resolves(dotted):
                errors.append(
                    f"{name}: documents `{dotted}`, which does not resolve "
                    "(import + getattr)"
                )
    return errors


def run_lint(root: Path = REPO_ROOT) -> list[str]:
    return (
        check_links(root)
        + check_cli_sync(root)
        + check_bench_sync(root)
        + check_tool_sync(root)
        + check_scale_sync(root)
        + check_dotted_names(root)
    )


def main() -> int:
    errors = run_lint()
    if errors:
        print(f"docs lint: {len(errors)} problem(s)")
        for error in errors:
            print(f"  - {error}")
        return 1
    print("docs lint: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
