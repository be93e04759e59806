"""DET006 — contract declaration.

Every backend name exposed through ``fusion.BACKENDS`` and
``endtoend.PIPELINE_BACKENDS`` / ``STREAMING_PIPELINE_BACKENDS`` must
resolve under the declared numeric contracts: a key in
``_BACKEND_PARITY`` (what ``parity_of`` consults) and the presence of
``parity_of`` / ``sampling_contract_of`` themselves.  A backend added without a parity declaration ships with an
*undefined* correctness contract; a parity key with no backend is a
stale declaration.  Pipeline backends may rename on the way to fusion
(``endtoend._FUSION_BACKEND`` — e.g. ``batched`` runs its fusion stage
as ``serial`` — and ``_STREAM_FUSION_BACKEND`` for the streaming
pipeline); each rename table must be a literal dict and every pipeline
backend must resolve through its table to a declared fusion backend.
This is the one cross-module rule: it correlates ``fusion/base.py``
with ``endtoend.py``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Mapping

from repro.analysis.lint import Finding, Rule, SourceFile

RULE_ID = "DET006"

BASE_PATH = "src/repro/fusion/base.py"
ENDTOEND_PATH = "src/repro/endtoend.py"

_REQUIRED_FUNCS = ("parity_of", "sampling_contract_of")

#: ``endtoend``'s (backend-name tuple, rename table) pairs: the record
#: pipeline's and the streaming pipeline's.
_RENAME_TABLES = (
    ("PIPELINE_BACKENDS", "_FUSION_BACKEND"),
    ("STREAMING_PIPELINE_BACKENDS", "_STREAM_FUSION_BACKEND"),
)


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


def _str_tuple(node: ast.expr | None) -> tuple[str, ...] | None:
    """Literal tuple/list of strings, else None."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values: list[str] = []
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            values.append(elt.value)
        else:
            return None
    return tuple(values)


def _dict_str_keys(node: ast.expr | None) -> tuple[str, ...] | None:
    """Literal-string keys of a dict display (values may be Name refs
    to module constants — only the key set matters here)."""
    if not isinstance(node, ast.Dict):
        return None
    keys: list[str] = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append(key.value)
        else:
            return None
    return tuple(keys)


def _dict_str_items(node: ast.expr | None) -> dict[str, str] | None:
    """Literal ``str -> str`` dict display, else None."""
    if not isinstance(node, ast.Dict):
        return None
    items: dict[str, str] = {}
    for key, value in zip(node.keys, node.values):
        if (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            items[key.value] = value.value
        else:
            return None
    return items


def _has_func(tree: ast.Module, name: str) -> bool:
    return any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == name
        for node in tree.body
    )


def check(files: Mapping[str, SourceFile]) -> Iterable[Finding]:
    return list(_check(files))


def _check(files: Mapping[str, SourceFile]) -> Iterator[Finding]:
    base = files.get(BASE_PATH)
    if base is None or base.tree is None:
        # Fixture runs that do not include base.py have nothing to
        # declare; the repo run always includes it.
        return

    backends_node = _module_assign(base.tree, "BACKENDS")
    backends = _str_tuple(backends_node)
    if backends is None:
        yield Finding(
            BASE_PATH,
            backends_node.lineno if backends_node is not None else 1,
            RULE_ID,
            "BACKENDS must be a module-level literal tuple of backend "
            "names so the contract surface is statically auditable",
        )
        return

    parity_node = _module_assign(base.tree, "_BACKEND_PARITY")
    parity_keys = _dict_str_keys(parity_node)
    if parity_keys is None:
        yield Finding(
            BASE_PATH,
            parity_node.lineno if parity_node is not None else 1,
            RULE_ID,
            "_BACKEND_PARITY must be a module-level dict display with "
            "literal string keys (one per backend)",
        )
        return

    for func in _REQUIRED_FUNCS:
        if not _has_func(base.tree, func):
            yield Finding(
                BASE_PATH,
                1,
                RULE_ID,
                f"required contract resolver {func}() is missing from "
                "fusion/base.py",
            )

    for backend in backends:
        if backend not in parity_keys:
            yield Finding(
                BASE_PATH,
                backends_node.lineno,
                RULE_ID,
                f"backend '{backend}' is in BACKENDS but has no "
                "_BACKEND_PARITY entry; parity_of() would raise on it",
            )
    for key in parity_keys:
        if key not in backends:
            yield Finding(
                BASE_PATH,
                parity_node.lineno,
                RULE_ID,
                f"_BACKEND_PARITY declares '{key}' which is not in "
                "BACKENDS; stale contract declaration",
            )

    endtoend = files.get(ENDTOEND_PATH)
    if endtoend is None or endtoend.tree is None:
        return
    for names, table in _RENAME_TABLES:
        yield from _check_rename_table(
            endtoend.tree, names, table, backends, parity_keys
        )


def _check_rename_table(
    tree: ast.Module,
    names: str,
    table: str,
    backends: tuple[str, ...],
    parity_keys: tuple[str, ...],
) -> Iterator[Finding]:
    """Every backend in the ``names`` tuple must resolve, through the
    literal ``table`` rename dict, to a declared fusion backend."""
    pipeline_node = _module_assign(tree, names)
    if pipeline_node is None:
        return
    pipeline = _str_tuple(pipeline_node)
    if pipeline is None:
        yield Finding(
            ENDTOEND_PATH,
            pipeline_node.lineno,
            RULE_ID,
            f"{names} must be a literal tuple of backend names",
        )
        return
    # Pipeline backends may rename before reaching fusion (``batched``
    # runs its fusion stage as ``serial``); the rename table must itself
    # be a statically auditable literal.
    mapping_node = _module_assign(tree, table)
    mapping: dict[str, str] = {}
    if mapping_node is not None:
        parsed = _dict_str_items(mapping_node)
        if parsed is None:
            yield Finding(
                ENDTOEND_PATH,
                mapping_node.lineno,
                RULE_ID,
                f"{table} must be a literal str -> str dict "
                "display so backend resolution is statically auditable",
            )
            return
        mapping = parsed
        for key in mapping:
            if key not in pipeline:
                yield Finding(
                    ENDTOEND_PATH,
                    mapping_node.lineno,
                    RULE_ID,
                    f"{table} maps '{key}' which is not in "
                    f"{names}; stale contract declaration",
                )

    for backend in pipeline:
        resolved = mapping.get(backend, backend)
        if resolved not in backends or resolved not in parity_keys:
            yield Finding(
                ENDTOEND_PATH,
                pipeline_node.lineno,
                RULE_ID,
                f"{names} entry '{backend}' (fusion backend "
                f"'{resolved}') does not resolve under fusion's "
                "BACKENDS/_BACKEND_PARITY contract declarations",
            )

RULE = Rule(id=RULE_ID, title="contract declaration", check=check)
