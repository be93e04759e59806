"""Per-extractor confidence models.

Extractors attach a confidence to each record, computed from a *raw
signal* — pattern reliability × linkage certainty × structural cleanliness
— that genuinely correlates with correctness.  What differs per extractor
is how that signal is *reported*, reproducing the four behaviours of
Figure 21:

- ``calibrated``: reports the signal with mild noise (DOM2-like when
  sharpened; TXT2-like); accuracy tracks confidence;
- ``extreme``: pushes reports toward 0/1 (DOM2, ANO "tend to assign
  confidence close to 0 or 1");
- ``centered``: compresses reports toward 0.5 (TXT1);
- ``peaked``: *miscalibrated* — reports are highest for mid-signal records
  (TBL1, whose accuracy peaks at medium confidence);
- ``uninformative``: reports extreme values uncorrelated with the signal
  (ANO: "the accuracy of the triples stays similar when the confidence
  increases");
- ``none``: no confidence at all (DOM5, TBL2 in Table 2).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ConfidenceModel", "make_confidence_model"]


class ConfidenceModel(abc.ABC):
    """Transforms a raw correctness signal into a reported confidence.

    The arithmetic is written for the record emitter's inner loop, two
    spellings in particular (both bitwise-equal to the textbook form —
    ``tests/oracle/extract.py::transform`` — and held to it by the tests):

    - noise is ``float(standard_normal()) * noise``, not
      ``rng.normal(0.0, noise)``: ``Generator.normal`` consumes exactly
      one standard-normal variate and computes ``loc + scale * z`` in IEEE
      doubles, so with ``loc = 0.0`` the product is the identical value
      while skipping the loc/scale argument broadcast;
    - clipping to [0, 1] is a chained comparison, not ``min``/``max``:
      the same object for in-range ``x`` and the same literal bound
      otherwise (``x`` is never ``-0.0`` — every clipped quantity is a
      sum or product of non-negative terms).

    ``np.tanh`` stays: numpy routes scalars through its own SIMD tanh,
    which does *not* match ``math.tanh`` bit-for-bit.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def bind(self, generator: np.random.Generator) -> Callable[[float], float]:
        """``report(signal)``: the reported confidence for a record with
        raw ``signal`` in [0, 1], its noise drawn from ``generator``."""


@dataclass
class CalibratedConfidence(ConfidenceModel):
    """Reports the signal plus mild noise."""

    noise: float = 0.08
    name: str = "calibrated"

    def bind(self, generator):
        standard_normal = generator.standard_normal
        noise = self.noise

        def report(signal):
            x = signal + float(standard_normal()) * noise
            return x if 0.0 <= x <= 1.0 else (1.0 if x > 1.0 else 0.0)

        return report


@dataclass
class ExtremeConfidence(ConfidenceModel):
    """Pushes reports toward the extremes (sharpening)."""

    sharpness: float = 3.0
    noise: float = 0.05
    name: str = "extreme"

    def bind(self, generator):
        standard_normal = generator.standard_normal
        noise = self.noise
        sharpness = self.sharpness
        tanh = np.tanh

        def report(signal):
            noisy = signal + float(standard_normal()) * noise
            if not 0.0 <= noisy <= 1.0:
                noisy = 1.0 if noisy > 1.0 else 0.0
            # Logistic sharpening around 0.5.
            x = 0.5 + 0.5 * float(tanh((noisy - 0.5) * sharpness))
            return x if 0.0 <= x <= 1.0 else (1.0 if x > 1.0 else 0.0)

        return report


@dataclass
class CenteredConfidence(ConfidenceModel):
    """Compresses reports toward 0.5 (weakly informative)."""

    compression: float = 0.35
    noise: float = 0.06
    name: str = "centered"

    def bind(self, generator):
        standard_normal = generator.standard_normal
        noise = self.noise
        compression = self.compression

        def report(signal):
            noisy = signal + float(standard_normal()) * noise
            if not 0.0 <= noisy <= 1.0:
                noisy = 1.0 if noisy > 1.0 else 0.0
            x = 0.5 + (noisy - 0.5) * compression
            return x if 0.0 <= x <= 1.0 else (1.0 if x > 1.0 else 0.0)

        return report


@dataclass
class PeakedConfidence(ConfidenceModel):
    """Miscalibrated: highest reports for *mid*-signal records (TBL-style)."""

    noise: float = 0.07
    name: str = "peaked"

    def bind(self, generator):
        standard_normal = generator.standard_normal
        noise = self.noise

        def report(signal):
            # Records the extractor is most sure of get medium reports, and
            # vice versa: reported = 1 - |signal - 0.5| * 2 folded around 0.55.
            x = 1.0 - abs(signal - 0.55) * 1.6 + float(standard_normal()) * noise
            return x if 0.0 <= x <= 1.0 else (1.0 if x > 1.0 else 0.0)

        return report


@dataclass
class UninformativeConfidence(ConfidenceModel):
    """Extreme reports uncorrelated with the signal."""

    name: str = "uninformative"

    def bind(self, generator):
        beta = generator.beta

        def report(signal):
            return float(beta(0.4, 0.4))

        return report


_MODELS = {
    "calibrated": CalibratedConfidence,
    "extreme": ExtremeConfidence,
    "centered": CenteredConfidence,
    "peaked": PeakedConfidence,
    "uninformative": UninformativeConfidence,
}


def make_confidence_model(name: str) -> ConfidenceModel | None:
    """Instantiate a confidence model by name; ``"none"`` returns None."""
    if name == "none":
        return None
    try:
        return _MODELS[name]()
    except KeyError:
        raise ValueError(
            f"unknown confidence model {name!r}; choose from "
            f"{sorted(_MODELS)} or 'none'"
        ) from None
