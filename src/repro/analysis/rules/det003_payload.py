"""DET003 — payload purity.

Shard payloads (the ``*Shard`` dataclasses in
:data:`~repro.analysis.rules.common.PAYLOAD_MODULES`) cross the pool
wire on every round.  The runtime audit (``scan_payload_types``) rejects
numpy buffers and rich domain objects at execution time; this rule is
its static companion — it reads the dataclass *field annotations* so a
smuggled ``np.ndarray`` or ``Triple`` fails review, not a parity test
three PRs later.  Allowed: primitives, ids, containers of the same, and
the one pointer type workers dereference locally, the ~300-byte
``RoundStateHandle`` (shared-memory segments).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Mapping

from repro.analysis.lint import Finding, Rule, SourceFile
from repro.analysis.rules.common import PAYLOAD_MODULES, dotted_name

RULE_ID = "DET003"

#: Type names a payload annotation may mention.  Note ``Any`` is absent:
#: an ``Any`` field defeats the whole audit.
ALLOWED_TYPE_NAMES = {
    "int",
    "float",
    "str",
    "bool",
    "bytes",
    "complex",
    "None",
    "NoneType",
    "Callable",
    "Optional",
    "Union",
    "tuple",
    "Tuple",
    "list",
    "List",
    "dict",
    "Dict",
    "set",
    "Set",
    "frozenset",
    "FrozenSet",
    "Sequence",
    "Mapping",
    "Iterable",
    "Literal",
    "RoundStateHandle",
}


def _bad_names(node: ast.expr) -> Iterator[str]:
    """Yield disallowed type names mentioned in an annotation."""
    if isinstance(node, ast.Constant):
        if node.value is None or node.value is Ellipsis:
            return
        if isinstance(node.value, str):
            # String annotation: re-parse and recurse.
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                yield node.value
                return
            yield from _bad_names(parsed.body)
        return
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = dotted_name(node)
        name = dotted.split(".")[-1] if dotted else None
        if name is not None and name not in ALLOWED_TYPE_NAMES:
            yield dotted or name
        return
    if isinstance(node, ast.Subscript):
        yield from _bad_names(node.value)
        yield from _bad_names(node.slice)
        return
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            yield from _bad_names(elt)
        return
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        yield from _bad_names(node.left)
        yield from _bad_names(node.right)
        return
    # Anything else (Ellipsis literals handled above) is opaque; say so.
    yield ast.dump(node)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = dotted_name(target) or ""
        if dotted.split(".")[-1] == "dataclass":
            return True
    return False


def _check_file(source: SourceFile) -> Iterator[Finding]:
    tree = source.tree
    if tree is None:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not node.name.endswith("Shard") or not _is_dataclass(node):
            continue
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            field = (
                stmt.target.id if isinstance(stmt.target, ast.Name) else "<field>"
            )
            for bad in _bad_names(stmt.annotation):
                yield Finding(
                    source.path,
                    stmt.lineno,
                    RULE_ID,
                    f"payload field {node.name}.{field} is annotated with "
                    f"'{bad}', which is not a primitive/id/handle type; "
                    "ship ids + a RoundStateHandle instead",
                )


def check(files: Mapping[str, SourceFile]) -> Iterable[Finding]:
    for path in PAYLOAD_MODULES:
        if path in files:
            yield from _check_file(files[path])


RULE = Rule(id=RULE_ID, title="payload purity", check=check)
