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

from repro.artifacts import setup_worldgen
from repro.datasets.profiles import EXTRACTOR_PROFILES
from repro.extract.linkage import EntityLinker
from repro.extract.pipeline import ExtractionPipeline, build_extractor
from repro.extract.records import ExtractionRecord
from repro.fusion.observations import FusionInput
from repro.kb.lcwa import LCWALabeler
from repro.kb.store import KnowledgeBase
from repro.kb.triples import Triple
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
    """A fully generated experimental environment."""

    config: ScenarioConfig
    world: World
    freebase: KnowledgeBase
    corpus: WebCorpus
    pipeline: ExtractionPipeline
    records: list[ExtractionRecord]
    gold: dict[Triple, bool]

    _fusion_input: FusionInput | None = field(default=None, repr=False)

    def fusion_input(self) -> FusionInput:
        """The (cached) fusion input over all extraction records."""
        if self._fusion_input is None:
            self._fusion_input = FusionInput(self.records)
        return self._fusion_input

    def unique_triples(self) -> list[Triple]:
        return self.fusion_input().unique_triples()

    # ------------------------------------------------------------------
    # Headline statistics (Table 1 shape)
    # ------------------------------------------------------------------
    def extraction_stats(self) -> dict[str, float]:
        unique = self.unique_triples()
        labelled = [t for t in unique if t in self.gold]
        true_count = sum(1 for t in labelled if self.gold[t])
        return {
            "extracted_records": len(self.records),
            "unique_triples": len(unique),
            "data_items": len({t.data_item for t in unique}),
            "gold_coverage": len(labelled) / len(unique) if unique else 0.0,
            "gold_accuracy": true_count / len(labelled) if labelled else 0.0,
        }


_SCENARIO_CACHE: dict[str, Scenario] = {}


def build_extraction_pipeline(config: ScenarioConfig, world: World) -> ExtractionPipeline:
    """The 12-extractor pipeline for ``config`` over an already-built world
    (shared by :func:`build_scenario` and the ``repro-kf extract`` CLI)."""
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
    freebase: KnowledgeBase, records: list[ExtractionRecord]
) -> dict[Triple, bool]:
    """The LCWA gold standard over the unique extracted triples.

    :func:`build_scenario`'s spelling: the dedup/sort pass over a record
    list, then :func:`label_gold_triples` — the one labeling definition,
    which :func:`repro.endtoend.run_end_to_end` calls directly because its
    records are already interned.
    """
    unique = sorted({record.triple for record in records}, key=Triple.canonical)
    return label_gold_triples(freebase, unique)


def label_gold_triples(
    freebase: KnowledgeBase, unique: list[Triple]
) -> dict[Triple, bool]:
    """LCWA labels for an already-deduplicated sorted triple list.

    The pipeline interns its records into a claim accumulator as they
    arrive (and, streamed, never holds them) — this is :func:`label_gold`
    with the dedup/sort step supplied by the caller (the accumulated rows
    are exactly the unique triples, so the two definitions coincide).
    """
    return LCWALabeler(freebase).label_many(unique)


def build_scenario(
    config: ScenarioConfig,
    use_cache: bool = True,
    backend: str = "serial",
    executor=None,
    cache_dir: str | Path | None = None,
) -> Scenario:
    """Generate (or fetch from cache) the scenario for ``config``.

    ``backend`` selects the extraction execution backend; the records are
    bit-identical under every one, so it is not part of the cache key.
    ``executor`` optionally supplies a caller-managed executor for the
    extraction stage (the caller closes it), for callers that share one
    worker pool across scenario builds or with downstream fusion.  (:func:`repro.endtoend.run_end_to_end`
    builds the stages directly — it needs per-stage timings — but shares
    :func:`build_extraction_pipeline` and :func:`label_gold_triples` with
    this path.)

    ``cache_dir`` points worldgen at the on-disk scenario artifact cache
    (:func:`repro.artifacts.setup_worldgen`): a hit loads the world,
    Freebase snapshot and corpus bit-identically in milliseconds, a miss
    generates them and publishes the artifact for next time.  It layers
    under the in-process ``use_cache`` — the in-process cache still wins
    when warm, and the artifact key already covers everything worldgen
    depends on (seed, configs, code version), so ``cache_dir`` is not
    part of the in-process key.
    """
    key = config.cache_key()
    if use_cache and key in _SCENARIO_CACHE:
        return _SCENARIO_CACHE[key]

    world, freebase, corpus, _status = setup_worldgen(
        config.seed, config.world, config.web, cache_dir
    )

    pipeline = build_extraction_pipeline(config, world)
    records = pipeline.run(corpus, backend=backend, executor=executor)

    gold = label_gold(freebase, records)

    scenario = Scenario(
        config=config,
        world=world,
        freebase=freebase,
        corpus=corpus,
        pipeline=pipeline,
        records=records,
        gold=gold,
    )
    if use_cache:
        _SCENARIO_CACHE[key] = scenario
    return scenario
