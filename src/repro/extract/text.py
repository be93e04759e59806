"""Text extractors (TXT1-4): pattern-based sentence parsing.

The real systems learn lexical patterns by distant supervision against
Freebase; here the analogue is a *pattern library* sampled from the shared
sentence-template registry.  Each pattern knows one phrasing
(``template_id``), believes it expresses some predicate (possibly the wrong
one — predicate-linkage errors), has a reliability score (drives both
confidence and span mangling), and may or may not understand merged
phrasings ("born on D in P"): a pattern that doesn't flattens both slots
onto its one predicate — a triple-identification error.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.extract.base import Extractor, ExtractorProfile
from repro.extract.linkage import EntityLinker
from repro.extract.records import ExtractionRecord
from repro.extract.synthesis import emit_plan
from repro.kb.schema import Schema
from repro.rng import split_seed
from repro.world.content import TextDocument
from repro.world.labels import TemplateSpec
from repro.world.webgen import WebPage

__all__ = ["TextPattern", "TextExtractor"]


@dataclass(frozen=True, slots=True)
class TextPattern:
    """One learned pattern: phrasing -> believed predicate."""

    pattern_id: str
    template_id: str
    predicate: str  # what the pattern *believes* slot 0 expresses
    reliability: float
    handles_merged: bool


class TextExtractor(Extractor):
    """Sentence-level extraction via a sampled pattern library."""

    record_content_type = "TXT"

    def __init__(
        self,
        profile: ExtractorProfile,
        schema: Schema,
        linker: EntityLinker,
        templates: dict[str, TemplateSpec],
        seed: int,
    ) -> None:
        super().__init__(profile, schema, linker, seed)
        self.templates = templates
        self.patterns = self._build_library()
        # Memo: template_id -> sentence plan (the pattern/predicate/slot
        # resolution, pure per template).
        self._sentence_plans: dict[str, tuple | None] = {}

    # ------------------------------------------------------------------
    def _wrong_predicate(self, pid: str, draw: float) -> str:
        """A plausible wrong predicate for ``pid``.

        Preference order mirrors how mislearned patterns actually confuse
        predicates: the declared confusable sibling (author↔editor), then
        any same-type sibling of the same value kind, then any same-type
        sibling at all.
        """
        predicate = self.schema.predicates[pid]
        if predicate.confusable_with is not None:
            return predicate.confusable_with
        same_kind = [
            p.pid
            for p in self.schema.predicates_of_type(predicate.type_id)
            if p.pid != pid and p.value_kind is predicate.value_kind
        ]
        if same_kind:
            return same_kind[int(draw * len(same_kind)) % len(same_kind)]
        siblings = [
            p.pid
            for p in self.schema.predicates_of_type(predicate.type_id)
            if p.pid != pid
        ]
        if not siblings:
            return pid
        return siblings[int(draw * len(siblings)) % len(siblings)]

    def _build_library(self) -> dict[str, TextPattern]:
        """Deterministically sample this extractor's pattern library."""
        profile = self.profile
        library: dict[str, TextPattern] = {}
        for template_id, spec in sorted(self.templates.items()):
            draw = (
                split_seed(self.seed, "pat", self.name, template_id) % 1_000_000
            ) / 1_000_000.0
            if draw >= profile.pattern_coverage:
                continue
            wrong_draw = (
                split_seed(self.seed, "patwrong", self.name, template_id) % 1_000_000
            ) / 1_000_000.0
            predicate = spec.slots[0]
            if wrong_draw < profile.wrong_predicate_rate:
                predicate = self._wrong_predicate(spec.slots[0], wrong_draw * 7919 % 1)
            library[template_id] = TextPattern(
                pattern_id=f"{self.name}:{template_id}",
                template_id=template_id,
                predicate=predicate,
                reliability=self.reliability_for(template_id),
                handles_merged=profile.handles_merged,
            )
        return library

    @property
    def n_patterns(self) -> int:
        """Size of the pattern library (Table 2's #Patterns column)."""
        return len(self.patterns)

    # ------------------------------------------------------------------
    def _sentence_plan(self, template_id: str) -> tuple | None:
        """Everything a sentence's extraction derives from its template.

        Pure in ``template_id``: the pattern lookup, the believed
        predicate, the subject type hint, the merged penalty (a pattern
        that does not understand a merged phrasing flattens both slots
        onto its one predicate), and the per-slot ``(emit_plan,
        slot_mismatch)`` resolution.  ``None`` means the template
        produces no records (no pattern, or the believed predicate is
        unknown).
        """
        pattern = self.patterns.get(template_id)
        if pattern is None:
            return None
        spec = self.templates[template_id]
        believed = self.schema.predicates.get(pattern.predicate)
        if believed is None:
            return None
        type_hint = believed.type_id if self.profile.use_type_hints else None
        merged_penalty = 0.65 if (spec.merged and not pattern.handles_merged) else 1.0
        slot_plans: list[tuple | None] = []
        for slot, declared in enumerate(spec.slots):
            if slot == 0 or not spec.merged:
                emitted_pid = pattern.predicate
            elif pattern.handles_merged:
                emitted_pid = declared
            else:
                emitted_pid = pattern.predicate
            predicate = self.schema.predicates.get(emitted_pid)
            if predicate is None:
                slot_plans.append(None)
            else:
                slot_plans.append(
                    (
                        emit_plan(
                            self,
                            predicate,
                            pattern.pattern_id,
                            pattern.reliability,
                        ),
                        emitted_pid != declared and slot > 0,
                    )
                )
        return (type_hint, merged_penalty, tuple(slot_plans))

    def _synthesize_page(self, page: WebPage, emit) -> list[ExtractionRecord]:
        records: list[ExtractionRecord] = []
        plans = self._sentence_plans
        build_plan = self._sentence_plan
        resolve = self.linker.resolve
        for element in page.elements:
            if not isinstance(element, TextDocument):
                continue
            sentences = element.sentences
            # The document-wide mention pool is what a sloppy pattern can
            # accidentally associate with its predicate (misgrab).  Built
            # on first use: pure, so deferring it past pattern-less
            # sentences is bit-safe.
            pool = None
            for sentence in sentences:
                template_id = sentence.template_id
                plan = plans.get(template_id, False)
                if plan is False:
                    plan = plans[template_id] = build_plan(template_id)
                if plan is None:
                    continue
                type_hint, merged_penalty, slot_plans = plan
                subject_id = resolve(sentence.subject.surface, type_hint)
                if subject_id is None:
                    continue
                if pool is None:
                    pool = tuple(
                        mention
                        for pooled in sentences
                        for mention in pooled.objects
                    )
                for slot, mention in enumerate(sentence.objects):
                    entry = slot_plans[slot]
                    if entry is None:
                        continue
                    eplan, slot_mismatch = entry
                    record = emit(
                        page,
                        subject_id,
                        eplan,
                        mention,
                        merged_penalty,
                        slot_mismatch,
                        pool,
                    )
                    if record is not None:
                        records.append(record)
        return records
