#!/usr/bin/env python
"""Reachability census: which functions in ``src/repro`` does a user run?

Runs a fixed list of entry points under a standard-library profile hook
and reports every function under ``src/repro`` that none of them entered:

- every ``repro-kf`` subcommand, each method x backend, at ``tiny``;
- ``run_end_to_end`` streamed under every pipeline backend, with and
  without a column store;
- ``repro-kf run all --out-dir`` at ``tiny`` and ``small``: every
  experiment, its checks and its report;
- the six ``examples/``;
- kfbench's four workloads (cold prepare, reference, rep, traced
  prepare and replica), in process at the quick ``tiny`` size.

The hook (``sys.setprofile`` plus ``threading.setprofile``) is on before
the first ``repro`` import, so import-time code counts, and records each
code object the first time it is entered.  A forked worker inherits the
hook and appends what it enters, one line per new code object, to a file
of its own, so pooled shards count and a worker that ends in ``os._exit``
loses nothing.  Spawned workers are not traced; no entry point spawns.

A function counts as reached when a code object entered starts on its
``def`` line or its first decorator line.  The report lists only the
outermost function never entered: what is nested under it was never
created.  ``@overload`` stubs are skipped; they never exist at run time.

``tools/reach_census_allow.json`` is the committed outcome: it maps
``module:qualname`` to the reason an unreached function stays, and each
reason starts with one of :data:`REASONS`.  The census exits non-zero on
an unreached function that is not listed, on a listed one that is now
reached or no longer exists, and on a reason outside :data:`REASONS`.

Usage::

    python tools/reach_census.py    # about 2.5 minutes on 2 vCPUs; no options
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

ALLOW_LIST = REPO_ROOT / "tools" / "reach_census_allow.json"

#: The only reasons an unreached function may stay; each allow-list
#: reason starts with one of these, then ``": "`` and the particulars.
REASONS = (
    "test reference",  # a test compares src/ against it
    "kfbench",  # benchmarks/kfbench/workloads.py calls it
    "declaration",  # a Protocol or abstract method body
    "console script",  # what pyproject's [project.scripts] names
    "scale choice",  # only a --scale preset no census entry point runs needs it
    "safety",  # a fault or audit path no healthy run takes
)


@dataclass(frozen=True)
class Function:
    """One ``def`` in the source tree."""

    key: str  # "module:qualname"
    path: str  # resolved source path
    lines: tuple[int, ...]  # the def line, and the first decorator line
    size: int  # source lines, decorators included
    parent: str | None  # the enclosing function's key


class Recorder:
    """A profile hook that notes every code object under ``root`` it enters.

    ``reached`` holds ``(path, first line)`` pairs.  A forked child keeps
    the hook and appends each new pair to ``<spool>/<pid>.txt`` at once,
    so nothing waits for the child to exit cleanly.
    """

    def __init__(self, root: Path, spool: Path) -> None:
        self.prefix = str(root.resolve()) + os.sep
        self.spool = spool
        self.pid = os.getpid()
        self.reached: set[tuple[str, int]] = set()
        self._seen: set[int] = set()
        # Seen code objects stay alive, so an id in ``_seen`` is never reused.
        self._alive: list = []
        self._paths: dict[str, str | None] = {}

    def _hook(self, frame, event, _arg) -> None:
        if event == "call" and id(frame.f_code) not in self._seen:
            self._enter(frame.f_code)

    def _enter(self, code) -> None:
        self._seen.add(id(code))
        self._alive.append(code)
        if code.co_filename not in self._paths:
            real = os.path.realpath(code.co_filename)
            self._paths[code.co_filename] = real if real.startswith(self.prefix) else None
        path = self._paths[code.co_filename]
        if path is None:
            return
        self.reached.add((path, code.co_firstlineno))
        if os.getpid() != self.pid:
            with open(self.spool / f"{os.getpid()}.txt", "a") as spool:
                spool.write(f"{code.co_firstlineno} {path}\n")

    def __enter__(self) -> "Recorder":
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *_exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)
        for spooled in sorted(self.spool.glob("*.txt")):
            for line in spooled.read_text().splitlines():
                lineno, path = line.split(" ", 1)
                self.reached.add((path, int(lineno)))


def trace(root: Path, run: Callable[[], object]) -> set[tuple[str, int]]:
    """``(path, first line)`` of every code object under ``root`` that
    ``run`` entered."""
    with tempfile.TemporaryDirectory(prefix="reach-spool-") as spool:
        with Recorder(root, Path(spool)) as recorder:
            run()
    return recorder.reached


def _is_overload(node: ast.AST) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "overload")
        or (isinstance(d, ast.Attribute) and d.attr == "overload")
        for d in node.decorator_list
    )


def functions(src: Path, package: str) -> list[Function]:
    """Every ``def`` under ``src/<package>``, outer before inner."""
    found: list[Function] = []

    def walk(node: ast.AST, module: str, path: str, prefix: str, parent: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_overload(child):
                    continue
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                function = Function(
                    key=f"{module}:{qualname}",
                    path=path,
                    lines=(child.lineno, first),
                    size=child.end_lineno - first + 1,
                    parent=parent,
                )
                found.append(function)
                walk(child, module, path, qualname + ".<locals>.", function.key)
            elif isinstance(child, ast.ClassDef):
                walk(child, module, path, prefix + child.name + ".", parent)
            else:
                walk(child, module, path, prefix, parent)

    for source in sorted((src / package).rglob("*.py")):
        parts = source.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(source.read_text(), filename=str(source))
        walk(tree, module, os.path.realpath(source), "", None)
    return found


def never_entered(found: list[Function], reached: set[tuple[str, int]]) -> list[Function]:
    return [f for f in found if not any((f.path, line) in reached for line in f.lines)]


def outermost(missed: list[Function]) -> list[Function]:
    """``missed`` without what is nested in another missed function."""
    keys = {f.key for f in missed}
    return [f for f in missed if f.parent not in keys]


def check(report: list[Function], allow: dict[str, str]) -> list[str]:
    """Every way the census disagrees with the allow-list."""
    listed = {f.key for f in report}
    problems = [
        f"unreached and not on the allow-list: {f.key} ({f.size} lines)"
        for f in report
        if f.key not in allow
    ]
    for key, reason in sorted(allow.items()):
        if key not in listed:
            problems.append(
                f"stale allow-list entry: {key} is reached, nested in an "
                "unreached function, or gone"
            )
        if not reason.startswith(tuple(f"{r}: " for r in REASONS)):
            problems.append(
                f"allow-list reason for {key} must start with one of "
                f"{', '.join(repr(r + ':') for r in REASONS)}"
            )
    return problems


def census(src: Path, package: str, run: Callable[[], object], allow_list: Path) -> int:
    """Trace ``run``, report, and check against ``allow_list``; the exit code."""
    reached = trace(src / package, run)
    found = functions(src, package)
    missed = never_entered(found, reached)
    report = outermost(missed)
    allow = json.loads(allow_list.read_text()) if allow_list.exists() else {}
    print(
        f"{len(found)} functions in {src / package}: {len(missed)} never entered, "
        f"{len(report)} outermost ({sum(f.size for f in report)} lines)"
    )
    for function in report:
        if function.key in allow:
            print(f"  allowed {function.size:>4}  {function.key}")
    problems = check(report, allow)
    for problem in problems:
        print(f"error: {problem}")
    print("reach census: " + (f"{len(problems)} problem(s)" if problems else "OK"))
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# The entry points
# ---------------------------------------------------------------------------


def _script(path: Path) -> None:
    """Run ``path`` as ``__main__``; its exit code does not matter here."""
    saved = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.argv = saved


def _kfbench(workload: str, scratch: Path) -> None:
    """One workload's children, in the harness's order, in this process."""
    from benchmarks.kfbench import rep

    def child(mode: str, cache: Path, **extra) -> dict:
        request = {
            "mode": mode,
            "workload": workload,
            "seed": 0,
            "quick": True,
            "cache_dir": str(cache),
            "scratch": tempfile.mkdtemp(dir=scratch),
        }
        return rep.run(request | extra)

    cache, traced = scratch / f"{workload}-cache", scratch / f"{workload}-traced"
    cache.mkdir()
    traced.mkdir()
    child("prepare", cache)
    expected = child("reference", cache)["expected"]
    child("rep", cache, expected=expected)
    if workload != "stream-batched":
        child("traced-prepare", traced, rep=0)
    child("traced", traced, rep=1, expected=expected)


def run_entry_points(scratch: Path) -> None:
    """The fixed list the census traces; every file written lands in ``scratch``."""
    from repro.cli import main as repro_kf
    from repro.datasets import tiny_config
    from repro.endtoend import PIPELINE_BACKENDS, PIPELINE_METHODS, run_end_to_end
    from repro.extract.pipeline import EXTRACTION_BACKENDS
    from repro.fusion.base import BACKENDS

    tiny = ("--scale", "tiny", "--workers", "2")
    cache = str(scratch / "cli-cache")
    repro_kf(["list"])
    repro_kf(["lint"])
    repro_kf(["lint", "--format", "json"])
    for method in PIPELINE_METHODS:
        for backend in BACKENDS:
            repro_kf(["fuse", method, "--backend", backend, *tiny])
        for backend in PIPELINE_BACKENDS:
            repro_kf(["pipeline", method, "--backend", backend, *tiny])
    for backend in EXTRACTION_BACKENDS:
        repro_kf(["extract", "--backend", backend, *tiny])
    for _miss_then_hit in range(2):
        repro_kf(["pipeline", "--backend", "hybrid", *tiny, "--cache-dir", cache])
    repro_kf(["cache", "prune", "--cache-dir", cache])
    repro_kf(["cache", "prune", "--cache-dir", cache, "--apply"])

    for backend in PIPELINE_BACKENDS:
        for columns in (None, scratch / f"columns-{backend}"):
            run_end_to_end(
                tiny_config(seed=0),
                backend=backend,
                n_workers=2,
                cache_dir=columns,
                chunk_pages=16,
            )

    for scale in ("tiny", "small"):
        out = str(scratch / f"results-{scale}")
        repro_kf(["run", "all", "--scale", scale, "--out-dir", out])
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        _script(example)

    (scratch / "kfbench").mkdir()
    for workload in ("mem-batched", "pool-hybrid", "stream-batched", "fuse-ladder"):
        _kfbench(workload, scratch / "kfbench")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-census-") as scratch:

        def run() -> None:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                run_entry_points(Path(scratch))

        return census(REPO_ROOT / "src", "repro", run, ALLOW_LIST)


if __name__ == "__main__":
    raise SystemExit(main())
