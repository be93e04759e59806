"""Scenario: the one-stop bundle for fusion experiments.

``build_scenario(config)`` generates (deterministically, from one seed):

1. the latent :class:`~repro.world.facts.World`;
2. the Freebase snapshot (imperfect reference KB);
3. the :class:`~repro.world.webgen.WebCorpus`;
4. the two shared entity linkers and the 12 extractors;
5. all extraction records, with injected-error classification;
6. the LCWA gold standard over the unique extracted triples.

Scenarios are cached in-process by config, because every benchmark and
experiment shares them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.datasets.profiles import EXTRACTOR_PROFILES
from repro.extract.linkage import EntityLinker
from repro.extract.pipeline import ExtractionPipeline, build_extractor
from repro.extract.records import ExtractionRecord, RecordTables
from repro.fusion.observations import FusionInput
from repro.kb.lcwa import LCWALabeler
from repro.kb.store import KnowledgeBase
from repro.kb.triples import Triple, item_text
from repro.world.config import WebConfig, WorldConfig
from repro.world.facts import World
from repro.world.labels import build_templates
from repro.world.webgen import WebCorpus

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "build_scenario",
    "build_extraction_pipeline",
    "label_gold",
    "label_gold_texts",
    "label_gold_triples",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that determines a scenario, hashable for caching.

    Every scenario runs the same twelve extractors,
    :data:`~repro.datasets.profiles.EXTRACTOR_PROFILES`.
    """

    seed: int = 0
    world: WorldConfig = field(default_factory=WorldConfig)
    web: WebConfig = field(default_factory=WebConfig)

    def cache_key(self) -> str:
        return repr((self.seed, self.world, self.web))


@dataclass
class Scenario:
    """A fully generated experimental environment; ``records`` is the
    run's record store, whose columns every reader (its fusion input
    included) reads, never decoded.  ``gold`` maps a
    triple's canonical text to its LCWA label, in sorted text order."""

    config: ScenarioConfig
    world: World
    freebase: KnowledgeBase
    corpus: WebCorpus
    pipeline: ExtractionPipeline
    records: RecordTables
    gold: dict[str, bool]

    _fusion_input: FusionInput = field(repr=False)

    def fusion_input(self) -> FusionInput:
        """The records' claim view, whose row layout the gold labels were
        taken from."""
        return self._fusion_input

    def unique_triples(self) -> list[Triple]:
        return self.fusion_input().unique_triples()

    # ------------------------------------------------------------------
    # Headline statistics (Table 1 shape)
    # ------------------------------------------------------------------
    def extraction_stats(self) -> dict[str, float]:
        unique = self.fusion_input().unique_texts()
        labelled = [t for t in unique if t in self.gold]
        true_count = sum(1 for t in labelled if self.gold[t])
        return {
            "extracted_records": len(self.records),
            "unique_triples": len(unique),
            "data_items": len(set(map(item_text, unique))),
            "gold_coverage": len(labelled) / len(unique) if unique else 0.0,
            "gold_accuracy": true_count / len(labelled) if labelled else 0.0,
        }


_SCENARIO_CACHE: dict[str, Scenario] = {}


def build_extraction_pipeline(config: ScenarioConfig, world: World) -> ExtractionPipeline:
    """The 12-extractor pipeline for ``config`` over an already-built world
    (shared by the pipeline's stage body and the ``repro-kf extract`` CLI)."""
    templates = build_templates(world.schema)
    linkers = {
        name: EntityLinker(
            name=name,
            registry=world.entities,
            popularity=world.popularity,
            seed=config.seed,
        )
        for name in ("EL-A", "EL-B")
    }
    extractors = [
        build_extractor(
            profile, world.schema, linkers[profile.linker], templates, config.seed
        )
        for profile in EXTRACTOR_PROFILES
    ]
    return ExtractionPipeline(extractors)


def label_gold(
    freebase: KnowledgeBase, records: RecordTables | list[ExtractionRecord]
) -> dict[str, bool]:
    """The LCWA gold standard over the unique extracted triples of a
    record store (a list is encoded first, :meth:`RecordTables.of`; no
    record is decoded): its distinct triple texts sorted, then
    :func:`label_gold_texts`."""
    return label_gold_texts(freebase, sorted(RecordTables.of(records).columns.triples))


def label_gold_texts(freebase: KnowledgeBase, unique: list[str]) -> dict[str, bool]:
    """LCWA labels for already-deduplicated sorted canonical triple texts:
    the one labeling definition, ``{text: is_true}`` in ``unique``'s order.

    The pipeline labels the sorted texts its fusion input lays out — this
    is :func:`label_gold` with the sort step supplied by the input's
    layout (its rows are exactly the store's distinct triples, so the
    two definitions coincide).
    """
    return LCWALabeler(freebase).label_texts(unique)


def label_gold_triples(freebase: KnowledgeBase, unique: list[Triple]) -> dict[str, bool]:
    """:func:`label_gold_texts` over ``Triple`` objects' canonical texts
    (for ``benchmarks/kfbench``)."""
    return label_gold_texts(freebase, [triple.canonical() for triple in unique])


def build_scenario(
    config: ScenarioConfig,
    use_cache: bool = True,
    backend: str = "serial",
    executor=None,
    cache_dir: str | Path | None = None,
) -> Scenario:
    """Generate (or fetch from the in-process cache) the scenario for
    ``config``: the materialised body of
    :func:`repro.endtoend.run_end_to_end` without fusion.

    ``backend`` and ``executor`` (caller-managed, not closed here) pick
    where extraction runs; the records are bit-identical under every
    one, so neither is part of the cache key.  ``cache_dir`` is the
    on-disk scenario artifact cache of
    :func:`repro.artifacts.setup_worldgen`, which layers under
    ``use_cache``.
    """
    key = config.cache_key()
    if use_cache and key in _SCENARIO_CACHE:
        return _SCENARIO_CACHE[key]
    from repro.endtoend import _extract_and_label  # endtoend imports this module

    scenario, *_ = _extract_and_label(config, backend, executor, {}, cache_dir)
    if use_cache:
        _SCENARIO_CACHE[key] = scenario
    return scenario
