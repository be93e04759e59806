"""Deterministic random-number utilities.

All stochastic components of the library (world generation, web rendering,
extraction noise, reducer sampling) draw from :class:`numpy.random.Generator`
instances derived from a single master seed.  Components never share a
generator; instead each asks for a *named stream* so that adding a new
consumer does not perturb the draws seen by existing ones.  This is what
makes scenarios and experiments exactly reproducible run-to-run.

Example
-------
>>> rng = named_rng(42, "worldgen")
>>> rng2 = named_rng(42, "worldgen")
>>> int(rng.integers(1000)) == int(rng2.integers(1000))
True
>>> rng3 = named_rng(42, "webgen")  # independent stream
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

import numpy as np

__all__ = [
    "named_rng",
    "stream_seed",
    "split_seed",
    "zipf_weights",
    "WeightedChoice",
]

_SEED_BYTES = 8
#: How far a weight vector's sum may stray from 1, as ``Generator.choice``
#: allows for float64 weights.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def stream_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for the stream ``name``.

    The derivation hashes the master seed together with the stream name, so
    streams are statistically independent and insensitive to the order in
    which they are created.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:_SEED_BYTES], "big")


def named_rng(master_seed: int, name: str) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the stream ``name``."""
    return np.random.default_rng(stream_seed(master_seed, name))


def split_seed(master_seed: int, *names: str) -> int:
    """Derive a sub-seed along a path of names, e.g. ``("webgen", "site3")``."""
    seed = master_seed
    for name in names:
        seed = stream_seed(seed, name)
    return seed


def zipf_weights(n: int, exponent: float = 1.0) -> np.ndarray:
    """Normalised Zipf weights ``w_i ∝ 1/(i+1)^exponent`` for ``n`` ranks.

    The paper repeatedly observes heavy-head/long-tail skew (triples per
    type, per entity, per source); sampling against these weights is how the
    synthetic scenario reproduces that skew.
    """
    if n <= 0:
        raise ValueError(f"need n >= 1, got {n}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-float(exponent))
    return weights / weights.sum()


class WeightedChoice:
    """``Generator.choice(len(p), p=p)`` with ``p`` checked and summed once.

    ``choice`` re-validates its weight vector and rebuilds the CDF on every
    call; page generation draws from the same few vectors thousands of
    times.  This does that work at construction and then consumes the
    caller's generator exactly as ``choice`` does, so every index and
    every draw taken from the stream is the same:

    - :meth:`draw` is ``int(rng.choice(n, p=p))``: one ``rng.random()``
      searched (right side) against ``cdf = p.cumsum(); cdf /= cdf[-1]``;
    - :meth:`draw_distinct` is ``rng.choice(n, size=k, replace=False,
      p=p).tolist()``: numpy's loop of ``rng.random(missing)`` searched
      against the CDF of ``p`` with the indices found so far zeroed,
      keeping first occurrences.  The first pass uses the cached CDF; only
      a collision pays for a rebuilt one.

    Both arrays are read-only: one instance may be shared by every caller
    of the same weights.
    """

    __slots__ = ("p", "cdf", "n_positive")

    def __init__(self, p) -> None:
        p = np.array(p, dtype=np.float64)
        if p.ndim != 1 or not p.size:
            raise ValueError("p must be a non-empty 1-dimensional vector")
        total = float(p.sum())
        if np.isnan(total):
            raise ValueError("Probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("Probabilities are not non-negative")
        if abs(total - 1.0) > _SUM_ATOL:
            raise ValueError(f"Probabilities do not sum to 1 (sum {total!r})")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        p.flags.writeable = False
        cdf.flags.writeable = False
        self.p = p
        self.cdf = cdf
        self.n_positive = int(np.count_nonzero(p > 0))

    def draw(self, rng: np.random.Generator) -> int:
        """One index, distributed as ``p``."""
        return bisect_right(self.cdf, rng.random())

    def draw_distinct(self, rng: np.random.Generator, k: int) -> list[int]:
        """``k`` distinct indices, in the order ``choice`` returns them."""
        if not 0 <= k <= self.n_positive:
            raise ValueError(
                f"cannot draw {k} distinct indices from {self.n_positive} "
                "non-zero weights"
            )
        found = self.cdf.searchsorted(rng.random(k), side="right").tolist()
        if len(set(found)) == k:
            return found
        found = list(dict.fromkeys(found))
        p = self.p.copy()
        while len(found) < k:
            x = rng.random(k - len(found))
            p[found] = 0
            cdf = p.cumsum()
            cdf /= cdf[-1]
            found.extend(dict.fromkeys(cdf.searchsorted(x, side="right").tolist()))
        return found
