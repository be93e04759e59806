"""DET002 — hash-order independence.

Python ``set`` iteration order depends on ``PYTHONHASHSEED`` and
insertion history; any reduction that folds over a set without
``sorted()`` can differ between serial and spawned-worker runs.  Inside
kernel/reducer modules (:data:`~repro.analysis.rules.common.KERNEL_MODULES`)
this rule flags loops and comprehensions whose iterable is statically
set-typed and whose body accumulates, and set-typed arguments fed
straight into order-sensitive folds (``sum``, ``list``, ``tuple``,
``str.join``).  Dict iteration is *not* flagged: CPython dicts are
insertion-ordered, and the repo's dicts are built in deterministic
order.

Separately (everywhere under ``src/repro``): the builtin ``hash()`` is
banned, because its value for str/bytes changes per process under hash
randomization.

The type tracking is deliberately shallow and flow-insensitive: a name
is "set-typed" if it is assigned from a set display / ``set()`` /
``frozenset()`` / a set comprehension / set-algebra on set-typed
operands, or annotated ``set[...]``.  ``dict[K, set[V]]`` annotations
additionally mark *subscripts* of that name as set-typed.  Wrapping the
iterable in ``sorted()`` naturally clears the flag (a Call is never
set-typed).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Mapping

from repro.analysis.lint import Finding, Rule, SourceFile
from repro.analysis.rules.common import KERNEL_MODULES

RULE_ID = "DET002"

#: Builtins whose result is independent of the argument's iteration
#: order; a bare generator over a set feeding these is fine.
ORDER_INSENSITIVE_SINKS = {
    "any",
    "all",
    "min",
    "max",
    "len",
    "set",
    "frozenset",
    "sorted",
}

#: Builtins whose result (value or float rounding) depends on iteration
#: order when fed an unordered iterable directly.
ORDER_SENSITIVE_SINKS = {"sum", "list", "tuple"}

#: Method calls on an accumulator that make a loop body order-sensitive.
#: ``.add`` is excluded: building a *set* inside the loop stays
#: order-free.
_ACCUMULATING_METHODS = {
    "append",
    "extend",
    "insert",
    "update",
    "setdefault",
    "appendleft",
}


def _is_set_annotation(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in {"set", "frozenset", "Set", "FrozenSet"}
    if isinstance(node, ast.Attribute):
        return node.attr in {"Set", "FrozenSet"}
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value)
    return False


def _dict_of_set_annotation(node: ast.expr) -> bool:
    """``dict[K, set[V]]`` / ``Dict[K, Set[V]]`` — subscripting yields sets."""
    if not isinstance(node, ast.Subscript):
        return False
    base = node.value
    base_name = (
        base.id
        if isinstance(base, ast.Name)
        else base.attr
        if isinstance(base, ast.Attribute)
        else None
    )
    if base_name not in {"dict", "Dict", "Mapping", "MutableMapping", "defaultdict"}:
        return False
    if isinstance(node.slice, ast.Tuple) and len(node.slice.elts) == 2:
        return _is_set_annotation(node.slice.elts[1])
    return False


class _SetEnv:
    """Per-file flow-insensitive 'which names hold sets' environment."""

    def __init__(self, tree: ast.Module) -> None:
        self.set_names: set[str] = set()
        self.dict_of_set_names: set[str] = set()
        # Two passes so `a = b` picks up names defined later; cheap and
        # order-independent.
        for _ in range(2):
            for node in ast.walk(tree):
                self._learn(node)

    def _learn(self, node: ast.AST) -> None:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _is_set_annotation(node.annotation):
                self.set_names.add(node.target.id)
            elif _dict_of_set_annotation(node.annotation):
                self.dict_of_set_names.add(node.target.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            if _is_set_annotation(node.annotation):
                self.set_names.add(node.arg)
            elif _dict_of_set_annotation(node.annotation):
                self.dict_of_set_names.add(node.arg)
        elif isinstance(node, ast.Assign):
            if self.is_set(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.set_names.add(target.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            if self.is_set(node.value) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
                self.set_names.add(node.target.id)

    def is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"set", "frozenset"}:
                return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            return node.value.id in self.dict_of_set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set(node.left) or self.is_set(node.right)
        return False


def _body_accumulates(loop: ast.For) -> bool:
    for node in ast.walk(loop):
        if node is loop:
            continue
        if isinstance(node, ast.AugAssign):
            return True
        if isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Subscript) for t in node.targets):
                return True
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _ACCUMULATING_METHODS
        ):
            return True
    return False


def _check_iteration(source: SourceFile) -> Iterator[Finding]:
    tree = source.tree
    if tree is None:
        return
    env = _SetEnv(tree)

    # Generator expressions directly consumed by an order-insensitive
    # builtin are fine; collect those so the walk below skips them.
    blessed_gens: set[ast.GeneratorExp] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ORDER_INSENSITIVE_SINKS
        ):
            for arg in node.args:
                if isinstance(arg, ast.GeneratorExp):
                    blessed_gens.add(arg)

    for node in ast.walk(tree):
        if isinstance(node, ast.For) and env.is_set(node.iter):
            if _body_accumulates(node):
                yield Finding(
                    source.path,
                    node.lineno,
                    RULE_ID,
                    "for-loop over a set feeds an accumulation; iteration "
                    "order is hash-dependent — wrap the iterable in sorted()",
                )
        elif isinstance(node, (ast.ListComp, ast.DictComp)):
            for gen in node.generators:
                if env.is_set(gen.iter):
                    yield Finding(
                        source.path,
                        node.lineno,
                        RULE_ID,
                        "comprehension over a set builds an ordered result; "
                        "wrap the iterable in sorted()",
                    )
        elif isinstance(node, ast.GeneratorExp) and node not in blessed_gens:
            for gen in node.generators:
                if env.is_set(gen.iter):
                    yield Finding(
                        source.path,
                        node.lineno,
                        RULE_ID,
                        "generator over a set feeds an order-sensitive "
                        "consumer; wrap the iterable in sorted()",
                    )
        elif isinstance(node, ast.Call):
            sink = None
            if isinstance(node.func, ast.Name) and node.func.id in ORDER_SENSITIVE_SINKS:
                sink = node.func.id
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "join":
                sink = "join"
            if sink is not None:
                for arg in node.args:
                    if env.is_set(arg):
                        yield Finding(
                            source.path,
                            node.lineno,
                            RULE_ID,
                            f"set passed directly to {sink}(); the fold order "
                            "is hash-dependent — wrap it in sorted()",
                        )


def _check_hash(source: SourceFile) -> Iterator[Finding]:
    tree = source.tree
    if tree is None:
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
        ):
            yield Finding(
                source.path,
                node.lineno,
                RULE_ID,
                "builtin hash() is per-process under hash randomization; "
                "derive stable values with repro.rng.split_seed or zlib.crc32",
            )


def check(files: Mapping[str, SourceFile]) -> Iterable[Finding]:
    for path in sorted(files):
        if not path.startswith("src/repro/"):
            continue
        if path in KERNEL_MODULES:
            yield from _check_iteration(files[path])
        yield from _check_hash(files[path])


RULE = Rule(id=RULE_ID, title="hash-order independence", check=check)
