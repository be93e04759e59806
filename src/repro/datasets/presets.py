"""Scenario size presets.

- ``tiny``: seconds to build; unit/integration tests.
- ``small``: the default experiment scale (~10⁵ extraction records); all
  benchmarks run against it.
- ``medium``: a few × larger for stability checks of the headline results.
- ``web``: the out-of-core tier (~10⁶ extraction records); only the
  streamed pipeline (:func:`repro.endtoend.run_end_to_end` with
  ``chunk_pages`` set) runs it in bounded memory — see ``docs/SCALING.md``.

The presets set only the four sizes; the paper's *shape* statistics
(skew exponents, error rates, content mix) are module constants under
``repro/world/``, so statistics computed on ``small`` and ``medium``
should agree in shape.
"""

from __future__ import annotations

from repro.datasets.scenario import ScenarioConfig
from repro.world.config import WebConfig, WorldConfig

__all__ = [
    "tiny_config",
    "small_config",
    "medium_config",
    "web_config",
    "STREAMING_SCALES",
]

#: Scale names whose corpus must be streamed, never materialised; the
#: CLI/bench run these with ``chunk_pages`` set.
STREAMING_SCALES = frozenset({"web"})


def tiny_config(seed: int = 0) -> ScenarioConfig:
    """A scenario that builds in well under a second."""
    return ScenarioConfig(
        seed=seed,
        world=WorldConfig(n_types=6, n_entities=120),
        web=WebConfig(n_sites=12, n_pages=80),
    )


def small_config(seed: int = 0) -> ScenarioConfig:
    """The default experiment scale (used by all benchmarks)."""
    return ScenarioConfig(
        seed=seed,
        world=WorldConfig(n_types=12, n_entities=1500),
        web=WebConfig(n_sites=150, n_pages=2500),
    )


def medium_config(seed: int = 0) -> ScenarioConfig:
    """A few × larger; for stability checks of headline results."""
    return ScenarioConfig(
        seed=seed,
        world=WorldConfig(n_types=12, n_entities=4000),
        web=WebConfig(n_sites=400, n_pages=8000),
    )


def web_config(seed: int = 0) -> ScenarioConfig:
    """The out-of-core tier: ~10⁶ extraction records (~28× ``small``).

    Sized so the *materialised* corpus + record list would be multiple
    gigabytes — the point of the tier is that the streaming pipeline
    never holds them.  Build it with chunked generation + extraction and
    mapped claim columns only.
    """
    return ScenarioConfig(
        seed=seed,
        world=WorldConfig(n_types=12, n_entities=6000),
        web=WebConfig(n_sites=800, n_pages=72_000),
    )
