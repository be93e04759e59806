"""The one round loop of the §5 extension fusers.

Each extension is an EM over the claim columns whose round state is one or
two float vectors (provenance accuracies; extractor × site factors;
sensitivity × specificity) and whose round is a fixed number of array
operations, in-process.

Deliberately not :func:`repro.fusion.runner._run_columnar`: none of the
extensions uses the coverage / θ filters, gold initialisation, sampling or
the θ-rescue that loop exists to sequence, and their state is not one
accuracy per provenance.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.fusion.base import FusionConfig, FusionResult, ResultColumns
from repro.fusion.observations import ColumnarClaims

__all__ = ["claim_rows", "fuse_rounds"]

State = tuple[np.ndarray, ...]


def claim_rows(cols: ColumnarClaims) -> np.ndarray:
    """The row of each claim (the expansion of ``cols.row_ptr``)."""
    return np.repeat(np.arange(cols.n_rows), np.diff(cols.row_ptr))


def fuse_rounds(
    method: str,
    cols: ColumnarClaims,
    config: FusionConfig,
    state: State,
    step: Callable[[State], tuple[np.ndarray, State]],
) -> tuple[FusionResult, State]:
    """Iterate ``step(state) -> (row posteriors, next state)`` until no
    state value moves by ``convergence_tol`` or ``max_rounds`` is spent.

    Returns the result — the last round's posteriors, keyed by triple in
    canonical row order — and the final state, from which the caller
    fills in its own ``accuracies`` / ``diagnostics``.
    """
    converged = False
    for rounds in range(1, config.max_rounds + 1):
        posteriors, new_state = step(state)
        delta = max(
            float(np.max(np.abs(new - old), initial=0.0))
            for new, old in zip(new_state, state)
        )
        state = new_state
        if delta < config.convergence_tol:
            converged = True
            break
    result = FusionResult(
        method,
        ResultColumns(
            cols, np.arange(cols.n_rows), posteriors, np.zeros(cols.n_rows, dtype=bool)
        ),
        rounds=rounds,
        converged=converged,
        diagnostics={"n_items": cols.n_items},
    )
    return result, state
