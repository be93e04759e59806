"""The per-item posteriors as dict functions: the scalar kernels as they were.

Until the scalar stage bodies went id-based, each built-in kernel scored
one data item as ``(claims: dict[Triple, set[ProvKey]], accuracies:
dict[ProvKey, float]) -> dict[Triple, float]``.  Those three functions
moved here verbatim (bodies unchanged from ``src/repro/fusion/{accu,
popaccu,vote}.py`` at fc42308, except that each builtin ``sum()`` of
floats is spelled as the ``total += v`` loop it was on CPython 3.11 —
3.12's ``sum()`` compensates; the clamp bounds are restated rather than
imported) and are what the oracles score items with:
:func:`tests.oracle.fusion.kernel_of` hands them to the dict engine, and
the extension oracles (:mod:`tests.oracle.extensions`) call
:func:`accu_item_posteriors`.  ``src/`` scores the same math for a whole
round at once (``exact_round`` of ``AccuKernel`` / ``PopAccuKernel`` /
``VoteKernel``), held ``==`` to these by
``tests/property/test_prop_posteriors.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fusion.observations import ColumnarSlice, ProvKey
from repro.kb.triples import Triple

__all__ = [
    "ACC_CEIL",
    "ACC_FLOOR",
    "accu_item_posteriors",
    "kernel_posteriors",
    "popaccu_item_posteriors",
    "vote_item_posteriors",
]

ACC_FLOOR = 1e-3
ACC_CEIL = 1.0 - 1e-3


def kernel_posteriors(
    kernel, claims: dict[Triple, set[ProvKey]], accuracies: dict[ProvKey, float]
) -> dict[Triple, float]:
    """A ``src/`` kernel's ``exact_round`` scored on one item given as
    dict claims, every provenance active.

    The item becomes a one-item CSR in the claim columns' order — rows
    are the sorted triples, each row's claims its provenances' ids in the
    sorted provenance list — and the posteriors are keyed back by triple,
    so the result compares ``==`` with the dict forms below.
    """
    triples = sorted(claims)
    provs = sorted(set().union(*claims.values())) if claims else []
    prov_id = {prov: i for i, prov in enumerate(provs)}
    row_provs = [sorted(prov_id[prov] for prov in claims[triple]) for triple in triples]
    lengths = [len(row) for row in row_provs]
    csr = ColumnarSlice(
        rows=np.arange(len(triples)),
        row_item=np.zeros(len(triples), dtype=np.int64),
        item_ptr=np.array([0, len(triples)] if triples else [0], dtype=np.int64),
        claim_prov=np.array([p for row in row_provs for p in row], dtype=np.int64),
        row_ptr=np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
        claims=np.arange(sum(lengths)),
    )
    result = kernel.exact_round(
        csr,
        np.array([accuracies[prov] for prov in provs], dtype=np.float64),
        np.ones(len(provs), dtype=bool),
        False,
    )
    return {
        triple: float(result.posteriors[row])
        for row, triple in enumerate(triples)
        if result.scored[row]
    }


def _clamped(accuracy: float) -> float:
    return min(max(accuracy, ACC_FLOOR), ACC_CEIL)


# ---------------------------------------------------------------------------
# Verbatim from src/repro/fusion/accu.py at fc42308
# ---------------------------------------------------------------------------


def accu_item_posteriors(
    claims: dict[Triple, set[ProvKey]],
    accuracies: dict[ProvKey, float],
    n_false: int,
) -> dict[Triple, float]:
    """Posterior probability of each observed value of one data item.

    ``claims`` maps each observed triple to its supporting provenances;
    ``n_false`` is the paper's ``N`` (default 100).

    Floats are summed in canonical (sorted) order, never in set/dict
    iteration order, so the result is independent of ``PYTHONHASHSEED``
    and of how the claims dict was assembled — the bit-identity contract
    between the serial backend and process-pool workers (including
    ``spawn`` workers, which draw their own hash seed) rests on this.
    """
    if not claims:
        return {}
    vote_counts: dict[Triple, float] = {}
    for triple in sorted(claims):
        count = 0.0
        for prov in sorted(claims[triple]):
            accuracy = _clamped(accuracies[prov])
            count += math.log(n_false * accuracy / (1.0 - accuracy))
        vote_counts[triple] = count
    k = len(vote_counts)
    peak = max(vote_counts.values())
    peak = max(peak, 0.0)  # unobserved values sit at vote count 0
    denominator = 0.0
    for c in vote_counts.values():
        denominator += math.exp(c - peak)
    denominator += max(n_false + 1 - k, 0) * math.exp(-peak)
    return {
        triple: math.exp(count - peak) / denominator
        for triple, count in vote_counts.items()
    }


# ---------------------------------------------------------------------------
# Verbatim from src/repro/fusion/popaccu.py at fc42308
# ---------------------------------------------------------------------------


def popaccu_item_posteriors(
    claims: dict[Triple, set[ProvKey]],
    accuracies: dict[ProvKey, float],
) -> dict[Triple, float]:
    """Posterior probability of each observed value of one data item.

    Floats are summed in canonical (sorted) order, never in set iteration
    order, so the result is independent of ``PYTHONHASHSEED`` — see
    :func:`accu_item_posteriors` for why the serial/parallel bit-identity
    contract needs this.
    """
    if not claims:
        return {}
    triples = sorted(claims)
    support = {t: len(claims[t]) for t in triples}
    total = sum(support.values())
    log_true: dict[Triple, float] = {}
    log_false: dict[Triple, float] = {}
    for triple in triples:
        lt = 0.0
        lf = 0.0
        for prov in sorted(claims[triple]):
            accuracy = _clamped(accuracies[prov])
            lt += math.log(accuracy)
            lf += math.log(1.0 - accuracy)
        log_true[triple] = lt
        log_false[triple] = lf

    scores: dict[Triple, float] = {}
    for candidate in triples:
        rest = total - support[candidate]
        score = log_true[candidate]
        for other in triples:
            if other is candidate:
                continue
            # All of `other`'s provenances provided a false value whose
            # empirical popularity (given `candidate` is true) is
            # m(other)/rest.
            score += log_false[other]
            score += support[other] * math.log(support[other] / rest)
        scores[candidate] = score
    # OTHER: every observed value is false, popularity m(v)/m(D).
    other_score = 0.0
    for triple in triples:
        other_score += log_false[triple]
        other_score += support[triple] * math.log(support[triple] / total)

    peak = max(max(scores.values()), other_score)
    exp_sum = 0.0
    for s in scores.values():
        exp_sum += math.exp(s - peak)
    denominator = math.exp(other_score - peak) + exp_sum
    return {
        triple: math.exp(score - peak) / denominator
        for triple, score in scores.items()
    }


# ---------------------------------------------------------------------------
# Verbatim from src/repro/fusion/vote.py at fc42308
# ---------------------------------------------------------------------------


def vote_item_posteriors(
    claims: dict[Triple, set[ProvKey]],
    accuracies: dict[ProvKey, float] | None = None,
) -> dict[Triple, float]:
    """Scalar reference: ``p(T) = m/n`` for one data item.

    ``accuracies`` is accepted (and ignored) so VOTE matches the posterior
    signature of the Bayesian kernels.
    """
    total = sum(len(provs) for provs in claims.values())
    if total == 0:
        return {}
    return {triple: len(provs) / total for triple, provs in claims.items()}
