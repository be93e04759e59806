"""DET006 — contract declaration.

Every backend name resolves to its execution mode through one table,
``EXECUTION_MODES`` in ``mapreduce/executors.py``, and every contract a
run reports (executor, shard body, ``backend_used``, ``parity``) is
derived from the mode's two fields — so the table is the whole contract
surface.  It must stay statically auditable: a module-level dict display
whose keys are distinct string literals and whose values are
``ExecutionPlan(pooled=<bool>, batched=<bool>)`` calls on literal
booleans.  A table built by a comprehension, a helper, or a later
``EXECUTION_MODES[...] = ...`` would let a backend ship with a meaning no
reader (and no reviewer's diff) ever sees.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Mapping

from repro.analysis.lint import Finding, Rule, SourceFile

RULE_ID = "DET006"

TABLE_PATH = "src/repro/mapreduce/executors.py"
TABLE_NAME = "EXECUTION_MODES"

_PLAN_FIELDS = ("pooled", "batched")


def _module_assign(tree: ast.Module, name: str) -> ast.expr | None:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == name:
                return node.value
    return None


def _is_literal_plan(node: ast.expr) -> bool:
    """``ExecutionPlan(pooled=<bool literal>, batched=<bool literal>)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "ExecutionPlan"
        and not node.args
        and tuple(keyword.arg for keyword in node.keywords) == _PLAN_FIELDS
        and all(
            isinstance(keyword.value, ast.Constant)
            and isinstance(keyword.value.value, bool)
            for keyword in node.keywords
        )
    )


def check(files: Mapping[str, SourceFile]) -> Iterable[Finding]:
    return list(_check(files))


def _check(files: Mapping[str, SourceFile]) -> Iterator[Finding]:
    source = files.get(TABLE_PATH)
    if source is None or source.tree is None:
        # Fixture runs that do not include executors.py have nothing to
        # declare; the repo run always includes it.
        return

    table = _module_assign(source.tree, TABLE_NAME)
    if not isinstance(table, ast.Dict):
        yield Finding(
            TABLE_PATH,
            table.lineno if table is not None else 1,
            RULE_ID,
            f"{TABLE_NAME} must be a module-level dict display so the "
            "contract surface is statically auditable",
        )
        return

    seen: set[str] = set()
    for key, value in zip(table.keys, table.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            yield Finding(
                TABLE_PATH,
                (key or value).lineno,
                RULE_ID,
                f"{TABLE_NAME} keys must be string literals (one per "
                "backend name)",
            )
            continue
        if key.value in seen:
            yield Finding(
                TABLE_PATH,
                key.lineno,
                RULE_ID,
                f"{TABLE_NAME} declares '{key.value}' twice; the later "
                "entry silently wins",
            )
        seen.add(key.value)
        if not _is_literal_plan(value):
            yield Finding(
                TABLE_PATH,
                value.lineno,
                RULE_ID,
                f"backend '{key.value}' must map to ExecutionPlan(pooled="
                "<bool>, batched=<bool>) on literal booleans",
            )


RULE = Rule(id=RULE_ID, title="contract declaration", check=check)
