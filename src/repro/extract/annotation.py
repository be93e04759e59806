"""Annotation extractor (ANO): ontology mapping over schema.org-ish markup.

The paper relies on "semi-automatically defined mappings from the ontology
in schema.org to that in Freebase".  The analogue here is an itemprop →
predicate map that is *incomplete* (``pattern_coverage`` of properties are
mapped at all) and partially *wrong* (``wrong_predicate_rate`` of mapped
properties point at a confusable predicate).  Structurally the markup is
clean, so nearly all ANO errors are linkage or mapping errors — yet its
Table 2 accuracy is a poor 0.28, which the profile reproduces with an
aggressive, hint-free linker and a corrupted map.
"""

from __future__ import annotations

from repro.extract.base import Extractor
from repro.extract.synthesis import emit_plan
from repro.rng import split_seed
from repro.world.content import AnnotationBlock
from repro.world.labels import ano_prop
from repro.world.webgen import WebPage

__all__ = ["AnnotationExtractor"]


class AnnotationExtractor(Extractor):
    """itemprop-driven extraction from annotation blocks."""

    record_content_type = "ANO"

    def __init__(self, profile, schema, linker, seed) -> None:
        super().__init__(profile, schema, linker, seed)
        self._prop_map = self._build_map()
        # Memo: itemprop -> emit_plan or None for unmapped/unknown
        # props; pure per prop.
        self._prop_plans: dict[str, tuple | None] = {}

    def _build_map(self) -> dict[str, str]:
        """The semi-automatic ontology map, holes and mistakes included.

        itemprops collide across types (both ``film/film/release_year`` and
        ``music/album/release_year`` render as ``releaseYear``); the map
        keeps the first pid in sorted order, as a careless mapping would.
        """
        mapping: dict[str, str] = {}
        for pid in sorted(self.schema.predicates):
            prop = ano_prop(pid)
            include_draw = (
                split_seed(self.seed, "anomap", self.name, prop) % 1_000_000
            ) / 1_000_000.0
            if include_draw >= self.profile.pattern_coverage:
                continue
            wrong_draw = (
                split_seed(self.seed, "anowrong", self.name, prop) % 1_000_000
            ) / 1_000_000.0
            target = pid
            if wrong_draw < self.profile.wrong_predicate_rate:
                predicate = self.schema.predicates[pid]
                if predicate.confusable_with is not None:
                    target = predicate.confusable_with
            mapping.setdefault(prop, target)
        return mapping

    def _synthesize_page(self, page: WebPage, emit) -> None:
        resolve = self.linker.resolve
        plans = self._prop_plans
        for element in page.elements:
            if not isinstance(element, AnnotationBlock):
                continue
            subject_id = resolve(element.subject.surface)
            if subject_id is None:
                continue
            props = element.props
            pool = tuple(mention for _prop, mention in props)
            for prop, mention in props:
                plan = plans.get(prop, False)
                if plan is False:
                    pid = self._prop_map.get(prop)
                    predicate = (
                        None if pid is None else self.schema.predicates.get(pid)
                    )
                    plan = plans[prop] = (
                        None
                        if predicate is None
                        else emit_plan(
                            self, predicate, None, self.reliability_for(prop)
                        )
                    )
                if plan is None:
                    continue
                emit(page, subject_id, plan, mention, 1.0, False, pool)
