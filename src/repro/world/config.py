"""Configuration for world and web generation: the four sizes.

:class:`WorldConfig` sizes the latent truth (how many entity types and
entities) and :class:`WebConfig` sizes the observable web (how many sites
and pages).  These are the only values the scale presets vary.  The shape
statistics that make the generated corpus track the paper's Tables 1-3
and Figures 3-7 at laptop scale (skews, fill and error rates, Freebase's
imperfections, the content mix) are module constants next to the code
that draws them: ``world/worldgen.py``, ``world/facts.py`` and
``world/webgen.py``.  They sit under ``repro/world/``, so
:func:`repro.artifacts.code_version` covers every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["WorldConfig", "WebConfig"]


@dataclass(frozen=True)
class WorldConfig:
    """The size of the latent ground-truth world.

    Attributes
    ----------
    n_types:
        How many entity types to instantiate from the built-in catalog.
    n_entities:
        Total entity budget, distributed across types with a Zipf skew
        (location/organization/business-heavy, like the paper's top types).
    """

    n_types: int = 10
    n_entities: int = 1200

    def __post_init__(self) -> None:
        if self.n_types < 2:
            raise ConfigError(f"n_types must be >= 2, got {self.n_types}")
        if self.n_entities < 10:
            raise ConfigError(f"n_entities must be >= 10, got {self.n_entities}")


@dataclass(frozen=True)
class WebConfig:
    """The size of the observable web corpus.

    Attributes
    ----------
    n_sites:
        Number of web sites; page counts per site are Zipf-skewed so a few
        sites dominate (half the paper's pages contribute a single triple).
    n_pages:
        Total page budget.
    """

    n_sites: int = 120
    n_pages: int = 1500

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ConfigError(f"n_sites must be >= 1, got {self.n_sites}")
        if self.n_pages < self.n_sites:
            raise ConfigError(
                f"n_pages ({self.n_pages}) must be >= n_sites ({self.n_sites})"
            )
