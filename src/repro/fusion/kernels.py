"""Batched numpy posterior kernels over the columnar claim layout.

The scalar per-item posteriors (``accu_item_posteriors``,
``popaccu_item_posteriors``, ``vote_item_posteriors``) are the reference
implementations; this module recomputes the same Stage-I math for *all*
data items of a round in a handful of array operations over a
:class:`~repro.fusion.observations.ColumnarClaims` index.  The layout
invariant the kernels rely on: rows (unique triples) are contiguous per
item and claims contiguous per row, so every per-item / per-row aggregate
is one ``np.add.reduceat`` (or ``np.maximum.reduceat``) over a pointer
array — no Python loop, no ``Triple`` hashing.

Each kernel returns a :class:`RoundPosteriors`: a posterior per row plus a
``scored`` mask (rows whose item passed the round's filters and that kept
at least one active provenance).  :func:`stage2_accuracies` is the matching
batched Stage-II update (mean posterior of each provenance's scored
triples, via the transposed CSR).

The kernels are consumed two ways: whole-matrix by the ``vectorized``
backend, and shard-at-a-time by the ``hybrid`` backend — each parallel
worker calls ``batch_round`` on a
:class:`~repro.fusion.observations.ColumnarSlice` of the pool-resident
columns, so the kernels must only touch the CSR pointer/index attributes
(``item_ptr``/``row_ptr``/``row_item``/``claim_prov``/``n_rows``), which
both views provide.  In hybrid workers the ``accuracies``/``active``
inputs are **read-only views over shared-memory round state**
(:meth:`~repro.mapreduce.executors.RoundStateHandle.load`), so kernels
must never write into their inputs — derive new arrays (as ``np.clip``
etc. already do) instead of mutating in place.

**Numerical parity contract** (``tolerance``, see
:data:`repro.fusion.base.PARITY_TOLERANCE_ABS`): results match the scalar
references to ~1e-12 in practice; the contractual bound tests and
benchmarks assert is 1e-9 absolute.  Exact bitwise equality is *not*
guaranteed, because ``np.add.reduceat`` visits the same addends in array
order (with pairwise blocking) while the scalar references sum in
canonical (sorted) order.  The scalar references' canonical-order
summation is itself load-bearing: it is what makes the serial and
scalar-parallel backends independent of ``PYTHONHASHSEED`` (a dict/set
iteration order would leak each worker's hash seed into the last ulp) and
therefore bit-identical to each other — the ``bitwise`` contract the
golden tests freeze.  The batched kernels inherit hash-seed independence
trivially: they never iterate a hash-ordered container at all, only
integer-indexed arrays whose layout is canonically sorted at build time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fusion.observations import ColumnarClaims

__all__ = [
    "ACC_FLOOR",
    "ACC_CEIL",
    "RoundPosteriors",
    "accu_claim_votes",
    "accu_round",
    "accu_softmax",
    "popaccu_round",
    "vote_round",
    "stage2_accuracies",
]

#: Accuracy clamp shared by the scalar references (accu.py, popaccu.py) and
#: the batched kernels below — the scalar↔vectorized parity contract
#: depends on both paths clamping identically.
ACC_FLOOR = 1e-3
ACC_CEIL = 1.0 - 1e-3


@dataclass(eq=False)  # ndarray fields: generated __eq__ would raise
class RoundPosteriors:
    """Stage-I output of one round: per-row posterior + validity mask."""

    posteriors: np.ndarray  # float64 per row; meaningful only where scored
    scored: np.ndarray  # bool per row


def _empty_round() -> RoundPosteriors:
    return RoundPosteriors(
        posteriors=np.zeros(0, dtype=np.float64), scored=np.zeros(0, dtype=bool)
    )


def _segment_sum(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Sum of ``values`` per CSR segment (segments must be non-empty)."""
    return np.add.reduceat(values, ptr[:-1])


def _support_and_activity(
    cols: ColumnarClaims, active: np.ndarray, require_repeated: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-claim activity, per-row support, observed-row and item masks."""
    claim_active = active[cols.claim_prov]
    m_row = _segment_sum(claim_active.astype(np.float64), cols.row_ptr)
    observed = m_row > 0
    row_support_max = np.maximum.reduceat(m_row, cols.item_ptr[:-1])
    item_ok = row_support_max >= (2.0 if require_repeated else 1.0)
    return claim_active, m_row, observed, item_ok


def accu_round(
    cols: ColumnarClaims,
    accuracies: np.ndarray,
    active: np.ndarray,
    n_false: int,
    require_repeated: bool = False,
) -> RoundPosteriors:
    """Batched ACCU: softmax of summed vote counts over the full domain.

    Mirrors ``accu_item_posteriors``: vote count ``τ(S) = ln(N·A/(1−A))``
    summed per row, softmax per item against the observed rows plus
    ``max(N + 1 − k, 0)`` unobserved values at vote count 0.
    """
    if cols.n_rows == 0:
        return _empty_round()
    claim_active, m_row, observed, item_ok = _support_and_activity(
        cols, active, require_repeated
    )
    tau = accu_claim_votes(cols, accuracies, n_false) * claim_active
    vote_row = _segment_sum(tau, cols.row_ptr)
    return RoundPosteriors(
        posteriors=accu_softmax(cols, vote_row, observed, n_false),
        scored=observed & item_ok[cols.row_item],
    )


def accu_claim_votes(
    cols: ColumnarClaims, accuracies: np.ndarray, n_false: int
) -> np.ndarray:
    """ACCU's vote count ``τ(S) = ln(N·A/(1−A))`` of each claim's provenance."""
    acc = np.clip(accuracies, ACC_FLOOR, ACC_CEIL)[cols.claim_prov]
    return np.log(n_false * acc / (1.0 - acc))


def accu_softmax(
    cols: ColumnarClaims, vote_row: np.ndarray, observed: np.ndarray, n_false: int
) -> np.ndarray:
    """ACCU's per-item softmax of row vote counts over the full domain:
    the ``observed`` rows plus ``max(N + 1 − k, 0)`` unobserved values at
    vote count 0 (rows not ``observed`` get posterior 0)."""
    k_item = _segment_sum(observed.astype(np.float64), cols.item_ptr)
    vote_masked = np.where(observed, vote_row, -np.inf)
    peak = np.maximum(np.maximum.reduceat(vote_masked, cols.item_ptr[:-1]), 0.0)
    expv = np.where(observed, np.exp(vote_row - peak[cols.row_item]), 0.0)
    unobserved = np.maximum(n_false + 1 - k_item, 0.0)
    denom = _segment_sum(expv, cols.item_ptr) + unobserved * np.exp(-peak)
    return expv / denom[cols.row_item]


def popaccu_round(
    cols: ColumnarClaims,
    accuracies: np.ndarray,
    active: np.ndarray,
    require_repeated: bool = False,
) -> RoundPosteriors:
    """Batched POPACCU: empirical false-value popularity, explicit OTHER.

    Mirrors ``popaccu_item_posteriors``.  With per-row aggregates
    ``lt = Σ ln A``, ``lf = Σ ln(1−A)``, support ``m``, and per-item totals
    ``LF = Σ lf``, ``T = Σ m·ln m``, ``m(D) = Σ m``, the scalar candidate
    score telescopes to

        score(v) = lt_v + (LF − lf_v) + (T − m_v·ln m_v)
                   − (m(D) − m_v)·ln(m(D) − m_v)

    (empty rest-sum when ``v`` is unanimous), and the OTHER candidate to
    ``LF + T − m(D)·ln m(D)``; posteriors are the normalised exponentials.
    """
    if cols.n_rows == 0:
        return _empty_round()
    claim_active, m_row, observed, item_ok = _support_and_activity(
        cols, active, require_repeated
    )
    acc = np.clip(accuracies, ACC_FLOOR, ACC_CEIL)[cols.claim_prov]
    lt_row = _segment_sum(np.log(acc) * claim_active, cols.row_ptr)
    lf_row = _segment_sum(np.log(1.0 - acc) * claim_active, cols.row_ptr)

    safe_m = np.where(observed, m_row, 1.0)
    mlogm = np.where(observed, m_row * np.log(safe_m), 0.0)
    lf_item = _segment_sum(lf_row, cols.item_ptr)
    t_item = _segment_sum(mlogm, cols.item_ptr)
    total_item = _segment_sum(m_row, cols.item_ptr)

    rest = total_item[cols.row_item] - m_row
    rest_term = np.where(rest > 0, rest * np.log(np.maximum(rest, 1.0)), 0.0)
    score_row = (
        lt_row
        + (lf_item[cols.row_item] - lf_row)
        + (t_item[cols.row_item] - mlogm)
        - rest_term
    )
    safe_total = np.maximum(total_item, 1.0)
    other = lf_item + t_item - np.where(
        total_item > 0, total_item * np.log(safe_total), 0.0
    )

    score_masked = np.where(observed, score_row, -np.inf)
    peak = np.maximum(np.maximum.reduceat(score_masked, cols.item_ptr[:-1]), other)
    exps = np.where(observed, np.exp(score_row - peak[cols.row_item]), 0.0)
    denom = _segment_sum(exps, cols.item_ptr) + np.exp(other - peak)
    posteriors = exps / denom[cols.row_item]
    return RoundPosteriors(
        posteriors=posteriors, scored=observed & item_ok[cols.row_item]
    )


def vote_round(
    cols: ColumnarClaims,
    active: np.ndarray | None = None,
    require_repeated: bool = False,
) -> RoundPosteriors:
    """Batched VOTE: ``p(T) = m/n`` per row (``vote_item_posteriors``)."""
    if cols.n_rows == 0:
        return _empty_round()
    if active is None:
        active = np.ones(len(cols.provenances), dtype=bool)
    _claim_active, m_row, observed, item_ok = _support_and_activity(
        cols, active, require_repeated
    )
    total_item = _segment_sum(m_row, cols.item_ptr)
    posteriors = m_row / np.maximum(total_item, 1.0)[cols.row_item]
    return RoundPosteriors(
        posteriors=posteriors, scored=observed & item_ok[cols.row_item]
    )


def stage2_accuracies(
    cols: ColumnarClaims,
    round_result: RoundPosteriors,
    active: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Stage II: mean scored-triple posterior per active provenance.

    Returns ``(accuracies, updated)``: the new accuracy estimate per
    provenance and a mask of provenances that actually received one (were
    active and supported at least one scored row this round) — exactly the
    provenances the scalar Stage-II reducer emits.
    """
    scored_here = round_result.scored[cols.prov_rows]
    contrib = np.where(scored_here, round_result.posteriors[cols.prov_rows], 0.0)
    sums = _segment_sum(contrib, cols.prov_ptr)
    counts = _segment_sum(scored_here.astype(np.float64), cols.prov_ptr)
    updated = active & (counts > 0)
    new_acc = np.where(updated, sums / np.maximum(counts, 1.0), 0.0)
    return new_acc, updated

