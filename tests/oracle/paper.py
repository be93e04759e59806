"""The paper's fusion updates, transcribed naively: an independent oracle.

Every other reference under ``tests/oracle/`` is an earlier version of
``src/``; if that code misread the paper, ``src/``, the oracles and the
committed outputs all agree on the same wrong answer.  This module is
written from the model statements alone — the ``accu.py`` and
``popaccu.py`` module docstrings, which restate §4.1 of the paper and the
two models it cites — and imports nothing from ``repro``.  It is
deliberately naive: likelihoods are plain products of probabilities (no
log space, no peak shift), sums are whatever Python gives, and values,
items and provenances are any hashable keys.

- **VOTE**: ``p(v) = m(v) / n``, ``m(v)`` the provenances claiming ``v``,
  ``n`` all claims on the data item.
- **ACCU**: ``N`` uniformly distributed false values; a provenance with
  accuracy ``A`` votes ``N·A / (1 − A)`` (the exponential of its vote
  count ``τ``); a value's weight is the product of its provenances'
  votes, each of the ``N + 1 − k`` unobserved values weighs 1, and the
  posterior normalises over the whole domain.
- **POPACCU**: if ``v`` is true, each provenance of ``v`` is right
  (``A``) and each provenance of another value ``v0`` is wrong
  (``1 − A``) and picked the false value ``v0`` with its empirical
  popularity ``m(v0) / (m(D) − m(v))``; an explicit OTHER candidate
  ("none of the observed values") has every provenance wrong, with
  popularity ``m(v0) / m(D)``.  The posterior normalises over the
  observed values plus OTHER; OTHER's share is left unassigned.
- **Iteration** (Figure 8): Stage I scores every item with the current
  accuracies; Stage II sets each provenance's accuracy to the mean
  posterior of the distinct triples it claims.

Where ``src/`` departs from these statements on purpose (the accuracy
clamp, the unobserved-value count for ``k > N + 1``), the departure is
recorded in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

__all__ = ["accu_posteriors", "fuse", "popaccu_posteriors", "vote_posteriors"]


def vote_posteriors(claims: dict) -> dict:
    """``{value: provenances}`` of one data item -> ``{value: m(v)/n}``."""
    n = 0
    for provs in claims.values():
        n += len(provs)
    return {value: len(provs) / n for value, provs in claims.items()}


def accu_posteriors(claims: dict, accuracy: dict, n_false: int = 100) -> dict:
    """ACCU over one data item; needs ``k <= N + 1`` observed values."""
    k = len(claims)
    if k > n_false + 1:
        raise ValueError(f"{k} observed values exceed the model's N + 1 = {n_false + 1}")
    weight = {}
    for value, provs in claims.items():
        w = 1.0
        for prov in provs:
            a = accuracy[prov]
            w *= n_false * a / (1 - a)
        weight[value] = w
    domain = (n_false + 1 - k) * 1.0
    for w in weight.values():
        domain += w
    return {value: w / domain for value, w in weight.items()}


def popaccu_posteriors(claims: dict, accuracy: dict) -> dict:
    """POPACCU over one data item (the OTHER candidate's share unassigned)."""
    m = {value: len(provs) for value, provs in claims.items()}
    m_d = 0
    for count in m.values():
        m_d += count
    likelihood = {}
    for v in claims:
        like = 1.0
        for prov in claims[v]:
            like *= accuracy[prov]
        for v0, provs in claims.items():
            if v0 == v:
                continue
            for prov in provs:
                like *= (1 - accuracy[prov]) * (m[v0] / (m_d - m[v]))
        likelihood[v] = like
    other = 1.0
    for v0, provs in claims.items():
        for prov in provs:
            other *= (1 - accuracy[prov]) * (m[v0] / m_d)
    total = other
    for like in likelihood.values():
        total += like
    return {v: like / total for v, like in likelihood.items()}


def fuse(
    items: dict,
    method: str,
    rounds: int,
    default_accuracy: float = 0.8,
    n_false: int = 100,
    bounds: tuple[float, float] | None = None,
) -> tuple[dict, dict]:
    """``rounds`` rounds of Stage I / Stage II from ``default_accuracy``.

    ``items`` maps a data item to its ``{value: provenances}``; returns
    ``({(item, value): probability}, {provenance: accuracy})`` — the last
    round's posteriors and the accuracies after it.  VOTE stops after one
    Stage I and leaves the accuracies at the default.  ``bounds`` clamps the
    accuracies Stage I reads — ``src/``'s recorded deviation, applied only
    when a caller asks for it.
    """
    accuracy = {
        prov: default_accuracy
        for claims in items.values()
        for provs in claims.values()
        for prov in provs
    }
    probabilities: dict = {}
    for _ in range(rounds):
        probabilities = {}
        used = accuracy
        if bounds is not None:
            used = {prov: min(max(a, bounds[0]), bounds[1]) for prov, a in accuracy.items()}
        for item, claims in items.items():
            if method == "vote":
                scored = vote_posteriors(claims)
            elif method == "accu":
                scored = accu_posteriors(claims, used, n_false)
            else:
                scored = popaccu_posteriors(claims, used)
            for value, p in scored.items():
                probabilities[(item, value)] = p
        if method == "vote":
            break
        claimed: dict = {prov: [] for prov in accuracy}
        for (item, value), p in probabilities.items():
            for prov in items[item][value]:
                claimed[prov].append(p)
        accuracy = {prov: sum(ps) / len(ps) for prov, ps in claimed.items()}
    return probabilities, accuracy
