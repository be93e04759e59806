"""Named fusion configurations from the paper.

- :func:`vote`, :func:`accu`, :func:`popaccu` — the three basic methods at
  (Extractor, URL) granularity with paper defaults (N=100, A=0.8, R=5,
  L=1M);
- :func:`popaccu_plus_unsup` — POPACCU + refinements I-III (coverage
  filter, (Extractor, Site, Predicate, Pattern) granularity, θ=0.5
  accuracy filter); still unsupervised;
- :func:`popaccu_plus` — the semi-supervised flagship: all of the above
  plus gold-standard accuracy initialisation.

Every preset accepts ``backend=``
(``serial``/``vectorized``/``hybrid``) as a convenience
override of ``FusionConfig.backend``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ConfigError
from repro.fusion.accu import Accu
from repro.fusion.base import FusionConfig
from repro.fusion.popaccu import PopAccu
from repro.fusion.provenance import Granularity
from repro.fusion.vote import Vote
from repro.kb.triples import Triple

__all__ = ["vote", "accu", "popaccu", "popaccu_plus_unsup", "popaccu_plus"]


def _with_backend(config: FusionConfig, backend: str | None) -> FusionConfig:
    if backend is None:
        return config
    return replace(config, backend=backend)


def vote(config: FusionConfig | None = None, backend: str | None = None) -> Vote:
    """The VOTE baseline."""
    return Vote(_with_backend(config or FusionConfig(), backend))


def accu(config: FusionConfig | None = None, backend: str | None = None) -> Accu:
    """Basic ACCU with paper defaults."""
    return Accu(_with_backend(config or FusionConfig(), backend))


def popaccu(
    config: FusionConfig | None = None, backend: str | None = None
) -> PopAccu:
    """Basic POPACCU with paper defaults."""
    return PopAccu(_with_backend(config or FusionConfig(), backend))


def _plus_config(base: FusionConfig | None, theta: float) -> FusionConfig:
    config = base or FusionConfig()
    return replace(
        config,
        granularity=Granularity.EXTRACTOR_SITE_PREDICATE_PATTERN,
        filter_by_coverage=True,
        min_accuracy=theta,
    )


class PopAccuPlusUnsup(PopAccu):
    """POPACCU with refinements I-III (§4.3.4), still unsupervised."""

    @property
    def name(self) -> str:
        return "POPACCU+(unsup)"


class PopAccuPlus(PopAccu):
    """POPACCU with refinements I-IV (§4.3.4), semi-supervised."""

    @property
    def name(self) -> str:
        return "POPACCU+"


def popaccu_plus_unsup(
    config: FusionConfig | None = None,
    theta: float = 0.5,
    backend: str | None = None,
) -> PopAccu:
    """POPACCU+ without the gold standard (changes I-III of §4.3.4)."""
    return PopAccuPlusUnsup(_with_backend(_plus_config(config, theta), backend))


def popaccu_plus(
    gold_labels: dict[Triple, bool] | None = None,
    config: FusionConfig | None = None,
    theta: float = 0.5,
    backend: str | None = None,
) -> PopAccu:
    """POPACCU+ (changes I-IV of §4.3.4).

    ``gold_labels`` are LCWA labels used for accuracy initialisation; when
    omitted the preset degrades to the unsupervised variant but keeps the
    POPACCU+ name, which is almost never what you want — pass the labels.
    """
    if gold_labels is not None and not isinstance(gold_labels, dict):
        raise ConfigError("gold_labels must be a dict[Triple, bool]")
    return PopAccuPlus(
        _with_backend(_plus_config(config, theta), backend), gold_labels=gold_labels
    )
