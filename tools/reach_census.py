#!/usr/bin/env python
"""Reachability census: which functions in ``src/repro`` does a user run,
and which of their knobs does a user turn?

Runs a fixed list of entry points under a standard-library profile hook
and reports every function under ``src/repro`` that none of them entered:

- every ``repro-kf`` subcommand, each method x backend, at ``tiny``,
  and one ``pipeline`` at seed 1;
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

The same run is a *value census*.  A knob is a defaulted field of a
``*Config`` dataclass under ``src/repro``, or a parameter of a function
there whose default is an int or float literal.  Each call of a knob's
function (each construction of its config) records the value the knob
received; a knob that only ever held its default is *never varied*.  The
function census already reports a function nobody entered, so its knobs
are left out; a config has no ``def`` of its own, so the fields of a
config nobody built count as never varied.

``tools/reach_census_allow.json`` is the committed outcome: it maps
``module:qualname`` to the reason an unreached function stays, and
``module:qualname:param`` to the reason a never-varied knob stays a
parameter; each reason starts with one of :data:`REASONS`.  The census
exits non-zero on an unreached function or a never-varied knob that is
not listed, on a listed one that is now reached (varied) or no longer
exists, and on a reason outside :data:`REASONS`.

Usage::

    python tools/reach_census.py    # about one minute on 2 vCPUs; no options
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import dis
import enum
import inspect
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


@dataclass(frozen=True)
class Knob:
    """One knob: a defaulted ``*Config`` field or a literal-defaulted parameter."""

    key: str  # "module:qualname:param"
    owner: str  # "module:qualname" of the function or the config class
    param: str
    function: Function | None  # None for a config field
    default: object = None  # a parameter's literal; a field's is read at run time


#: Distinct values kept per knob for the report; the varied flag is exact.
MAX_VALUES = 8

_SCALARS = (int, float, str, bool, type(None))
# What a dataclass ``__init__`` holds for a ``default_factory`` field the
# caller left out.
_FACTORY = getattr(dataclasses, "_HAS_DEFAULT_FACTORY", object())
_GENERATOR_FLAGS = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


def _summary(value: object) -> object:
    """A small, JSON-ready stand-in for ``value`` in the report."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, enum.Enum):
        return repr(value)
    return f"<{type(value).__name__}>"


def _is_default(value: object, default: object) -> bool:
    if value is default or value is _FACTORY:
        return True
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    try:
        return bool(value == default)
    except Exception:  # an array, or a type that will not compare
        return False


class Recorder:
    """A profile hook that notes every code object under ``root`` it enters,
    and the value every knob in ``knobs`` receives on each call.

    ``reached`` holds ``(path, first line)`` pairs; ``values`` maps a knob's
    key to the summaries of the values it held (at most
    :data:`MAX_VALUES`), and ``varied`` holds the keys of knobs that held
    something other than their default.  A forked child keeps the hook and
    appends each new fact to ``<spool>/<pid>.txt`` at once, so nothing
    waits for the child to exit cleanly.
    """

    def __init__(self, root: Path, spool: Path, knobs: list[Knob] = ()) -> None:
        self.prefix = str(root.resolve()) + os.sep
        self.spool = spool
        self.pid = os.getpid()
        self.reached: set[tuple[str, int]] = set()
        self.values: dict[str, set] = {}
        self.varied: set[str] = set()
        # Code id -> what to record on each call: ``(generator start offset
        # or None, ((param, default, key), ...))``, or ``()`` for nothing.
        self._seen: dict[int, tuple] = {}
        # Seen code objects stay alive, so an id in ``_seen`` is never reused.
        self._alive: list = []
        self._paths: dict[str, str | None] = {}
        self._by_line: dict[tuple[str, int], list[Knob]] = {}
        self._fields: dict[str, set[str]] = {}
        for knob in knobs:
            if knob.function is None:
                self._fields.setdefault(knob.owner, set()).add(knob.param)
                continue
            for line in knob.function.lines:
                self._by_line.setdefault((knob.function.path, line), []).append(knob)

    def _hook(self, frame, event, _arg) -> None:
        if event != "call":
            return
        watch = self._seen.get(id(frame.f_code))
        if watch is None:
            watch = self._enter(frame)
        if watch:
            self._record(frame, *watch)

    def _enter(self, frame) -> tuple:
        code = frame.f_code
        self._alive.append(code)
        if code.co_filename not in self._paths:
            real = os.path.realpath(code.co_filename)
            self._paths[code.co_filename] = real if real.startswith(self.prefix) else None
        path = self._paths[code.co_filename]
        if path is None:
            watch = self._config_watch(frame) if code.co_name == "__init__" else ()
        else:
            self.reached.add((path, code.co_firstlineno))
            self._spool(["reach", code.co_firstlineno, path])
            knobs = self._by_line.get((path, code.co_firstlineno), ())
            start = None
            if code.co_flags & _GENERATOR_FLAGS:
                # A generator's later resumes are "call" events too; only
                # the first, at its first RESUME, holds the arguments.
                start = next(i.offset for i in dis.get_instructions(code) if i.opname == "RESUME")
            watch = (start, tuple((k.param, k.default, k.key) for k in knobs)) if knobs else ()
        self._seen[id(code)] = watch
        return watch

    def _config_watch(self, frame) -> tuple:
        """What to record for a dataclass ``__init__`` of a watched config."""
        cls = type(frame.f_locals.get("self"))
        for klass in cls.__mro__:
            if getattr(klass.__dict__.get("__init__"), "__code__", None) is frame.f_code:
                break
        else:
            return ()
        owner = f"{klass.__module__}:{klass.__qualname__}"
        params = self._fields.get(owner)
        if not params:
            return ()
        entries = []
        for f in dataclasses.fields(klass):
            if f.name in params:
                default = f.default if f.default is not dataclasses.MISSING else f.default_factory()
                entries.append((f.name, default, f"{owner}:{f.name}"))
        return (None, tuple(entries))

    def _record(self, frame, start: int | None, entries: tuple) -> None:
        if start is not None and frame.f_lasti != start:
            return
        local = frame.f_locals
        for param, default, key in entries:
            value = local[param]
            held = self.values.setdefault(key, set())
            summary = _summary(value)
            if summary not in held and len(held) < MAX_VALUES:
                held.add(summary)
                self._spool(["value", key, summary])
            if key not in self.varied and not _is_default(value, default):
                self.varied.add(key)
                self._spool(["varied", key])

    def _spool(self, fact: list) -> None:
        if os.getpid() != self.pid:
            with open(self.spool / f"{os.getpid()}.txt", "a") as spool:
                spool.write(json.dumps(fact) + "\n")

    def __enter__(self) -> "Recorder":
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *_exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)
        for spooled in sorted(self.spool.glob("*.txt")):
            for line in spooled.read_text().splitlines():
                kind, *fact = json.loads(line)
                if kind == "reach":
                    self.reached.add((fact[1], fact[0]))
                elif kind == "value":
                    self.values.setdefault(fact[0], set()).add(fact[1])
                else:
                    self.varied.add(fact[0])


def trace(root: Path, run: Callable[[], object], knobs: list[Knob] = ()) -> Recorder:
    """Run ``run`` under a :class:`Recorder` of ``root`` and ``knobs``."""
    with tempfile.TemporaryDirectory(prefix="reach-spool-") as spool:
        with Recorder(root, Path(spool), knobs) as recorder:
            run()
    return recorder


def _is_overload(node: ast.AST) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "overload")
        or (isinstance(d, ast.Attribute) and d.attr == "overload")
        for d in node.decorator_list
    )


def _literal_number(node: ast.expr | None) -> int | float | None:
    """The int or float an ``ast`` default spells, or None."""
    try:
        value = ast.literal_eval(node) if node is not None else None
    except (ValueError, TypeError):
        return None
    return value if type(value) in (int, float) else None


def _parameter_knobs(node: ast.FunctionDef | ast.AsyncFunctionDef, function: Function) -> list[Knob]:
    args = node.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += list(zip(args.kwonlyargs, args.kw_defaults))
    return [
        Knob(f"{function.key}:{arg.arg}", function.key, arg.arg, function, default)
        for arg, spelled in pairs
        if (default := _literal_number(spelled)) is not None
    ]


def _is_config(node: ast.ClassDef) -> bool:
    def named(d: ast.expr) -> bool:
        d = d.func if isinstance(d, ast.Call) else d
        return (isinstance(d, ast.Name) and d.id == "dataclass") or (
            isinstance(d, ast.Attribute) and d.attr == "dataclass"
        )

    return node.name.endswith("Config") and any(named(d) for d in node.decorator_list)


def _field_knobs(node: ast.ClassDef, owner: str) -> list[Knob]:
    """The defaulted ``__init__`` fields of a config dataclass."""
    found = []
    for statement in node.body:
        if not (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and statement.value is not None
            and "ClassVar" not in ast.unparse(statement.annotation)
        ):
            continue
        value = statement.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            if not {"default", "default_factory"} & set(keywords):
                continue
        name = statement.target.id
        found.append(Knob(f"{owner}:{name}", owner, name, None))
    return found


def parse(src: Path, package: str) -> tuple[list[Function], list[Knob]]:
    """Every ``def`` under ``src/<package>``, outer before inner, and every knob."""
    found: list[Function] = []
    knobs: list[Knob] = []

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
                knobs.extend(_parameter_knobs(child, function))
                walk(child, module, path, qualname + ".<locals>.", function.key)
            elif isinstance(child, ast.ClassDef):
                if _is_config(child):
                    knobs.extend(_field_knobs(child, f"{module}:{prefix}{child.name}"))
                walk(child, module, path, prefix + child.name + ".", parent)
            else:
                walk(child, module, path, prefix, parent)

    for source in sorted((src / package).rglob("*.py")):
        parts = source.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(source.read_text(), filename=str(source))
        walk(tree, module, os.path.realpath(source), "", None)
    return found, knobs


def functions(src: Path, package: str) -> list[Function]:
    """Every ``def`` under ``src/<package>``, outer before inner."""
    return parse(src, package)[0]


def never_entered(found: list[Function], reached: set[tuple[str, int]]) -> list[Function]:
    return [f for f in found if not any((f.path, line) in reached for line in f.lines)]


def outermost(missed: list[Function]) -> list[Function]:
    """``missed`` without what is nested in another missed function."""
    keys = {f.key for f in missed}
    return [f for f in missed if f.parent not in keys]


def never_varied(knobs: list[Knob], recorder: Recorder) -> list[Knob]:
    """The knobs that only ever held their default: a parameter of a
    function that was called, or a field of any config."""
    return [
        knob
        for knob in knobs
        if knob.key not in recorder.varied
        and (knob.function is None or knob.key in recorder.values)
    ]


def check(report: list[Function], allow: dict[str, str], fixed: list[Knob] = ()) -> list[str]:
    """Every way the census disagrees with the allow-list."""
    listed = {f.key for f in report}
    listed_knobs = {k.key for k in fixed}
    problems = [
        f"unreached and not on the allow-list: {f.key} ({f.size} lines)"
        for f in report
        if f.key not in allow
    ]
    problems += [
        f"never varied and not on the allow-list: {k.key}" for k in fixed if k.key not in allow
    ]
    for key, reason in sorted(allow.items()):
        if key.count(":") == 2 and key not in listed_knobs:
            problems.append(
                f"stale allow-list entry: {key} is varied, belongs to an "
                "unreached function, or gone"
            )
        elif key.count(":") != 2 and key not in listed:
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
    found, knobs = parse(src, package)
    recorder = trace(src / package, run, knobs)
    missed = never_entered(found, recorder.reached)
    report = outermost(missed)
    fixed = never_varied(knobs, recorder)
    allow = json.loads(allow_list.read_text()) if allow_list.exists() else {}
    print(
        f"{len(found)} functions in {src / package}: {len(missed)} never entered, "
        f"{len(report)} outermost ({sum(f.size for f in report)} lines)"
    )
    for function in report:
        if function.key in allow:
            print(f"  allowed {function.size:>4}  {function.key}")
    print(
        f"knobs: {len(knobs)}, never varied: {len(fixed)}, "
        f"allow-listed: {sum(k.key in allow for k in fixed)}"
    )
    for knob in fixed:
        if knob.key in allow:
            print(f"  allowed knob  {knob.key} = {sorted(map(repr, recorder.values.get(knob.key, ())))}")
    problems = check(report, allow, fixed)
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
    from repro.endtoend import PIPELINE_METHODS, run_end_to_end
    from repro.mapreduce.executors import FUSION_MODES, PIPELINE_MODES

    tiny = ("--scale", "tiny", "--workers", "2")
    cache = str(scratch / "cli-cache")
    repro_kf(["list"])
    repro_kf(["lint"])
    for method in PIPELINE_METHODS:
        for backend in FUSION_MODES:
            repro_kf(["fuse", method, "--backend", backend, *tiny])
        for backend in PIPELINE_MODES:
            repro_kf(["pipeline", method, "--backend", backend, *tiny])
    repro_kf(["pipeline", "--scale", "tiny", "--seed", "1"])
    for backend in PIPELINE_MODES:
        repro_kf(["extract", "--backend", backend, *tiny])
    for _miss_then_hit in range(2):
        repro_kf(["pipeline", "--backend", "hybrid", *tiny, "--cache-dir", cache])
    repro_kf(["cache", "prune", "--cache-dir", cache])
    repro_kf(["cache", "prune", "--cache-dir", cache, "--apply"])

    for backend in PIPELINE_MODES:
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
