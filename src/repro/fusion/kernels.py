"""The numpy posterior kernels over the columnar claim layout, in two forms.

Both forms score every data item of a round at once over a
:class:`~repro.fusion.observations.ColumnarClaims` index (or a
:class:`~repro.fusion.observations.ColumnarSlice` of it), relying on one
layout invariant: rows (unique triples) are contiguous per item and
claims contiguous per row, in canonical (sorted) order.  Each Stage-I
kernel returns a :class:`RoundPosteriors` — a posterior per row plus a
``scored`` mask (rows whose item passed the round's filters and that kept
at least one active provenance).  Reducer-input sampling (the paper's
``L``) reaches every kernel the same way: an optional trailing ``keep``
claim mask, built once per round by
:func:`repro.fusion.shuffle.stage1_keep` / :func:`~repro.fusion.shuffle.stage2_keep`
(None when no group exceeds ``L``) — a dropped claim is treated exactly
like one of an inactive provenance.

**Exact kernels** (:func:`accu_exact_round`, :func:`popaccu_exact_round`,
:func:`exact_stage2_accuracies`; ``exact_round`` on the kernel classes)
are the ``serial`` mode's and the θ-rescue's, and the reference every
parity contract is stated against.  They perform the IEEE operations the
per-item formulas in ``accu.py`` / ``popaccu.py`` spell out, on the same
operands in the same order: every float sum is a left-to-right
``total += v`` over canonical order (:func:`ordered_segment_sums`), and
every transcendental is libm's ``math.log`` / ``math.exp`` (numpy's SIMD
``log`` / ``exp`` need not round the same way).  That is the ``bitwise``
contract the golden tests freeze, and it is independent of
``PYTHONHASHSEED``: no hash-ordered container is ever iterated.

**Batched kernels** (:func:`accu_round`, :func:`popaccu_round`,
:func:`vote_round`, :func:`stage2_accuracies`; ``batch_round``) are a
handful of ``np.add.reduceat`` passes with numpy's ``log`` / ``exp``,
consumed whole-matrix by ``vectorized`` and shard-at-a-time by
``hybrid`` — each pool worker calls ``batch_round`` on a slice of the
round's shared-memory CSR, so a kernel touches only the CSR
pointer/index attributes (``item_ptr``/``row_ptr``/``row_item``/
``claim_prov``/``n_rows``), and never writes into its inputs (in workers
they are read-only shared-memory views).  They honour the ``tolerance``
contract (:data:`repro.fusion.base.PARITY_TOLERANCE_ABS`): ~1e-12 from the
exact kernels in practice, 1e-9 asserted, because ``reduceat`` blocks its
sums pairwise.  VOTE has one form: ``m/n`` on integer counts is exact
either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fusion.observations import ColumnarClaims, ragged_gather

__all__ = [
    "ACC_FLOOR",
    "ACC_CEIL",
    "RoundPosteriors",
    "accu_claim_votes",
    "accu_exact_round",
    "accu_round",
    "accu_softmax",
    "exact_stage2_accuracies",
    "ordered_segment_sums",
    "popaccu_exact_round",
    "popaccu_round",
    "vote_round",
    "stage2_accuracies",
]

#: Accuracy clamp shared by the exact and the batched kernels — the
#: serial↔vectorized parity contract depends on both clamping identically.
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
    cols: ColumnarClaims,
    active: np.ndarray,
    require_repeated: bool,
    keep: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-claim activity, per-row support, observed-row and item masks.

    A claim is active when its provenance is and — under sampling — the
    round's claim keep-mask kept it.
    """
    claim_active = active[cols.claim_prov]
    if keep is not None:
        claim_active = claim_active & keep
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
    keep: np.ndarray | None = None,
) -> RoundPosteriors:
    """Batched ACCU: softmax of summed vote counts over the full domain.

    ACCU's formulas (:mod:`repro.fusion.accu`): vote count ``τ(S) = ln(N·A/(1−A))``
    summed per row, softmax per item against the observed rows plus
    ``max(N + 1 − k, 0)`` unobserved values at vote count 0.
    """
    if cols.n_rows == 0:
        return _empty_round()
    claim_active, m_row, observed, item_ok = _support_and_activity(
        cols, active, require_repeated, keep
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
    keep: np.ndarray | None = None,
) -> RoundPosteriors:
    """Batched POPACCU: empirical false-value popularity, explicit OTHER.

    POPACCU's formulas (:mod:`repro.fusion.popaccu`).  With per-row
    aggregates ``lt = Σ ln A``, ``lf = Σ ln(1−A)``, support ``m``, and
    per-item totals ``LF = Σ lf``, ``T = Σ m·ln m``, ``m(D) = Σ m``, the
    exact candidate score telescopes to

        score(v) = lt_v + (LF − lf_v) + (T − m_v·ln m_v)
                   − (m(D) − m_v)·ln(m(D) − m_v)

    (empty rest-sum when ``v`` is unanimous), and the OTHER candidate to
    ``LF + T − m(D)·ln m(D)``; posteriors are the normalised exponentials.
    """
    if cols.n_rows == 0:
        return _empty_round()
    claim_active, m_row, observed, item_ok = _support_and_activity(
        cols, active, require_repeated, keep
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
    keep: np.ndarray | None = None,
) -> RoundPosteriors:
    """VOTE: ``p(T) = m/n`` per row — bitwise, so ``VoteKernel``'s only form."""
    if cols.n_rows == 0:
        return _empty_round()
    if active is None:
        active = np.ones(len(cols.provenances), dtype=bool)
    _claim_active, m_row, observed, item_ok = _support_and_activity(
        cols, active, require_repeated, keep
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
    keep: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Stage II: mean scored-triple posterior per active provenance.

    Returns ``(accuracies, updated)``: the new accuracy estimate per
    provenance and a mask of provenances that actually received one (were
    active and supported at least one scored row this round) — exactly the
    provenances :func:`exact_stage2_accuracies` updates.  ``keep`` is the
    round's Stage-II keep-mask over ``prov_rows`` under sampling.
    """
    scored_here = round_result.scored[cols.prov_rows]
    if keep is not None:
        scored_here &= keep
    contrib = np.where(scored_here, round_result.posteriors[cols.prov_rows], 0.0)
    sums = _segment_sum(contrib, cols.prov_ptr)
    counts = _segment_sum(scored_here.astype(np.float64), cols.prov_ptr)
    updated = active & (counts > 0)
    new_acc = np.where(updated, sums / np.maximum(counts, 1.0), 0.0)
    return new_acc, updated


def ordered_segment_sums(
    values: np.ndarray, lengths: np.ndarray, initial: np.ndarray | None = None
) -> np.ndarray:
    """Per ragged segment of ``values`` (segment ``s`` is the next
    ``lengths[s]`` values), the float ``total = initial[s]`` (0.0 when
    ``initial`` is None) ``; for v in segment: total += v`` gives, bit for
    bit: one vectorised add per position of the longest segment, over the
    segments (sorted longest first) that reach it."""
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    positions = (np.cumsum(lengths) - lengths)[order]
    totals = np.zeros(len(lengths)) if initial is None else np.array(initial, np.float64)
    running = totals[order]
    reach = np.searchsorted(-sorted_lengths, -np.arange(sorted_lengths.max(initial=0)))
    for n in reach.tolist():
        running[:n] += values[positions[:n]]
        positions[:n] += 1
    totals[order] = running
    return totals


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (``math.log`` / ``math.exp``) applied to each value."""
    return np.fromiter(map(fn, values.tolist()), np.float64, len(values))


def _libm_at(fn, values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``_libm(fn, values)[ids]``, calling ``fn`` once per distinct id
    only: a θ-rescue slice reads a few dozen provenances of thousands.
    Elementwise, so bitwise the same."""
    read = np.zeros(len(values), dtype=bool)
    read[ids] = True
    at = np.flatnonzero(read)
    out = np.zeros(len(values), dtype=np.float64)
    out[at] = _libm(fn, values[at])
    return out[ids]


def _exact_layout(cols, active, require_repeated, keep):
    """The scored rows of a round and what the exact kernels read of them.

    Returns ``(scored, provs, m, seg, k)``: the scored-row mask; the
    scored rows' active provenance ids, row by row in claim order; each
    scored row's support ``m`` and scored-item index ``seg``; and ``k``,
    the scored rows per scored item.
    """
    claim_active, m_row, observed, item_ok = _support_and_activity(
        cols, active, require_repeated, keep
    )
    scored = observed & item_ok[cols.row_item]
    provs = cols.claim_prov[claim_active & np.repeat(scored, np.diff(cols.row_ptr))]
    _, seg, k = np.unique(cols.row_item[scored], return_inverse=True, return_counts=True)
    return scored, provs, m_row[scored].astype(np.int64), seg, k


def _exact_result(scored: np.ndarray, posteriors: np.ndarray) -> RoundPosteriors:
    full = np.zeros(len(scored), dtype=np.float64)
    full[scored] = posteriors
    return RoundPosteriors(posteriors=full, scored=scored)


def accu_exact_round(
    cols: ColumnarClaims,
    accuracies: np.ndarray,
    active: np.ndarray,
    n_false: int,
    require_repeated: bool = False,
    keep: np.ndarray | None = None,
) -> RoundPosteriors:
    """Exact ACCU, in :mod:`repro.fusion.accu`'s order: a row's vote count
    sums its provenances' ``τ`` in claim order; the softmax denominator
    sums the rows' ``exp(C − peak)`` in row order, then adds the
    unobserved values' mass."""
    scored, provs, m, seg, k = _exact_layout(cols, active, require_repeated, keep)
    if not scored.any():
        return _exact_result(scored, np.zeros(0))
    acc = np.clip(accuracies, ACC_FLOOR, ACC_CEIL)
    tau = _libm_at(math.log, n_false * acc / (1.0 - acc), provs)
    votes = ordered_segment_sums(tau, m)
    peak = np.maximum(np.maximum.reduceat(votes, np.cumsum(k) - k), 0.0)
    exps = _libm(math.exp, votes - peak[seg])
    unobserved = np.maximum(n_false + 1 - k, 0) * _libm(math.exp, -peak)
    return _exact_result(scored, exps / (ordered_segment_sums(exps, k) + unobserved)[seg])


def popaccu_exact_round(
    cols: ColumnarClaims,
    accuracies: np.ndarray,
    active: np.ndarray,
    require_repeated: bool = False,
    keep: np.ndarray | None = None,
) -> RoundPosteriors:
    """Exact POPACCU, in :mod:`repro.fusion.popaccu`'s order.

    Per row, ``lt = Σ ln A`` and ``lf = Σ ln(1−A)`` in claim order.  A
    candidate's score starts at its ``lt`` and adds, for each other row of
    its item in row order, that row's ``lf`` then ``m·ln(m/rest)``; OTHER
    starts at 0.0 and adds each row's ``lf`` then ``m·ln(m/m(D))``.  The
    ``m·ln(m/·)`` terms are tabulated once per distinct integer pair.
    The denominator is ``exp(OTHER − peak)`` plus the in-order sum of the
    candidates' exponentials.
    """
    scored, provs, m, seg, k = _exact_layout(cols, active, require_repeated, keep)
    if not scored.any():
        return _exact_result(scored, np.zeros(0))
    acc = np.clip(accuracies, ACC_FLOOR, ACC_CEIL)
    log_true = ordered_segment_sums(_libm_at(math.log, acc, provs), m)
    log_false = ordered_segment_sums(_libm_at(math.log, 1.0 - acc, provs), m)

    # Every (candidate, other) pair of rows of one item, other != candidate.
    n_rows, starts = len(m), np.cumsum(k) - k
    n_others = k[seg] - 1
    candidate = np.repeat(np.arange(n_rows), n_others)
    rank = np.arange(len(candidate)) - np.repeat(np.cumsum(n_others) - n_others, n_others)
    other = np.repeat(starts[seg], n_others) + rank
    other += other >= candidate
    m_total = np.add.reduceat(m, starts)
    # m·ln(m/d) for d = rest (candidate scores) and d = m(D) (OTHER).
    base = m_total.max() + 1
    divisor = np.concatenate(((m_total[seg] - m)[candidate], m_total[seg]))
    keys = np.concatenate((m[other], m)) * base + divisor
    pairs, term_of = np.unique(keys, return_inverse=True)
    pair_m, pair_d = np.divmod(pairs, base)
    terms = (pair_m * _libm(math.log, pair_m / pair_d))[term_of]

    steps = np.empty(2 * len(candidate))
    steps[0::2], steps[1::2] = log_false[other], terms[: len(candidate)]
    scores = ordered_segment_sums(steps, 2 * n_others, initial=log_true)
    steps = np.empty(2 * n_rows)
    steps[0::2], steps[1::2] = log_false, terms[len(candidate) :]
    other_score = ordered_segment_sums(steps, 2 * k)

    peak = np.maximum(np.maximum.reduceat(scores, starts), other_score)
    exps = _libm(math.exp, scores - peak[seg])
    denominator = _libm(math.exp, other_score - peak) + ordered_segment_sums(exps, k)
    return _exact_result(scored, exps / denominator[seg])


def exact_stage2_accuracies(
    cols: ColumnarClaims,
    round_result: RoundPosteriors,
    active: np.ndarray,
    keep: np.ndarray | None = None,
    prov_ids=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact Stage II over ``prov_ids`` (None: every provenance).

    As :func:`stage2_accuracies`, but each mean sums its scored (and, under
    sampling, kept) rows' posteriors left to right in canonical triple
    order (:meth:`~repro.fusion.observations.ColumnarClaims.canonical_prov_order`).
    """
    ids = np.arange(len(cols.provenances)) if prov_ids is None else np.asarray(prov_ids)
    counts = cols.prov_ptr[ids + 1] - cols.prov_ptr[ids]
    entries = cols.canonical_prov_order()[ragged_gather(cols.prov_ptr[ids], counts)]
    rows = cols.prov_rows[entries]
    kept = round_result.scored[rows]
    if keep is not None:
        kept &= keep[entries]
    n_kept = np.bincount(np.repeat(np.arange(len(ids)), counts)[kept], minlength=len(ids))
    sums = ordered_segment_sums(round_result.posteriors[rows[kept]], n_kept)
    updated = active[ids] & (n_kept > 0)
    return np.where(updated, sums / np.maximum(n_kept, 1), 0.0), updated
