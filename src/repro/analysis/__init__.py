"""Static contract enforcement for the determinism guarantees.

The repo's headline property — serial == fork == spawn bitwise at any
worker count, ``PYTHONHASHSEED``-independent, exactly reproducible per
seed — rests on a handful of coding contracts (named RNG streams,
canonical-order summation, payload purity, shm pairing, clock isolation,
declared parity).  Runtime tests can only spot-check the paths they
execute; the contract linter (:mod:`repro.analysis.lint` +
:mod:`repro.analysis.rules`) checks the *source* for the patterns that
break them, on every file, on every push.

Entry points: ``repro-kf lint`` (the CLI, what CI runs) and
:func:`run_lint` (what the tier-1 wrapper test
``tests/test_contracts_lint.py`` calls).  A finding is fixed; there is
no suppression.
"""

from repro.analysis.lint import (
    Finding,
    LintResult,
    Rule,
    SourceFile,
    find_repo_root,
    lint_sources,
    render_human,
    run_lint,
)

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
