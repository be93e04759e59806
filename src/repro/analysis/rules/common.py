"""Shared helpers and scope tables for the DET rules.

Scopes are repo-relative posix paths.  The fixture tests reuse these
constants so a module moving between scopes updates the tests for free.
"""

from __future__ import annotations

import ast

#: Modules that run inside reducers / kernels: the code whose iteration
#: order and clock access decide bitwise parity (the metric sums included:
#: the calibration and PR cores fold floats in input order).  DET002 scopes its
#: set-iteration check here; DET005 scopes wall-clock/env here.
KERNEL_MODULES: tuple[str, ...] = (
    "src/repro/fusion/accu.py",
    "src/repro/fusion/popaccu.py",
    "src/repro/fusion/vote.py",
    "src/repro/fusion/kernels.py",
    "src/repro/fusion/runner.py",
    "src/repro/fusion/shuffle.py",
    "src/repro/fusion/extensions/rounds.py",
    "src/repro/fusion/extensions/split_quality.py",
    "src/repro/fusion/extensions/functionality.py",
    "src/repro/fusion/extensions/hierarchy.py",
    "src/repro/fusion/extensions/confidence.py",
    "src/repro/extract/kernels.py",
    "src/repro/extract/synthesis.py",
    "src/repro/extract/records.py",
    "src/repro/extract/pipeline.py",
    "src/repro/eval/calibration.py",
    "src/repro/eval/pr.py",
    "src/repro/mapreduce/executors.py",
    "src/repro/mapreduce/codec.py",
)

#: Modules that define ``*Shard`` payload dataclasses shipped over the
#: pool wire; DET003 audits their field annotations.
PAYLOAD_MODULES: tuple[str, ...] = (
    "src/repro/fusion/shuffle.py",
)

def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> canonical dotted module/object it refers to.

    Covers ``import numpy as np`` (np -> numpy), ``import os`` (os ->
    os), and ``from datetime import datetime as dt`` (dt ->
    datetime.datetime).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                canonical = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def resolve(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of a Name/Attribute chain, alias-resolved.

    ``np.random.default_rng`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``.
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    canonical_head = aliases.get(head, head)
    return f"{canonical_head}.{rest}" if rest else canonical_head
