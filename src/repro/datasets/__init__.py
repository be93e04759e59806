"""Scenario builders: world → web → extraction → gold standard.

A :class:`~repro.datasets.scenario.Scenario` bundles everything one fusion
experiment needs: the latent world, the web corpus, the Freebase snapshot,
the 12 extractors' output and the LCWA gold standard.  Presets provide
laptop-scale configurations (``tiny`` for tests, ``small`` for benches,
``medium`` for longer runs); profiles carry the per-extractor knobs
calibrated against the paper's Table 2.
"""

from repro.datasets.profiles import EXTRACTOR_PROFILES
from repro.datasets.presets import (
    STREAMING_SCALES,
    medium_config,
    small_config,
    tiny_config,
    web_config,
)
from repro.datasets.scenario import (
    Scenario,
    ScenarioConfig,
    build_extraction_pipeline,
    build_scenario,
)

__all__ = [
    "EXTRACTOR_PROFILES",
    "tiny_config",
    "small_config",
    "medium_config",
    "web_config",
    "STREAMING_SCALES",
    "Scenario",
    "ScenarioConfig",
    "build_scenario",
    "build_extraction_pipeline",
]
