"""Record synthesis, coverage and classification as they were: the scalar walk.

Until ``Extractor.extract_page`` became the one-page case of
``extract_pages_batch``, every extractor family was implemented twice in
``src/repro/extract/``: a scalar walk (``Extractor.emit`` + the families'
``extract_page`` / ``_extract_*``, ``covers``, ``classify_record``,
``ConfidenceModel.transform``) and the batch kernels that had to reproduce
it bit for bit.  The scalar walk moved here unchanged (method bodies
verbatim from ``src/repro/extract/`` at 50498c8; the two edits are where
``self`` comes from — a :class:`ScalarReference` wrapped around the
production extractor, which still owns the profile, the linker, the
pattern library and the label maps — and ``emit``'s confidence call, which
goes through this module's :func:`transform`).  It is the comparand of
``tests/property/test_prop_synthesis.py``, ``tests/property/test_prop_extract.py``,
``tests/extract/test_kernels.py``, ``tests/extract/test_base.py`` and
``tests/extract/test_pipeline.py``: the kernels' records must equal these
field for field, confidence floats and debug payloads included.

It seeds a fresh ``default_rng`` per page, re-derives every per-predicate
constant per record and copies records to classify them — about half the
kernels' speed, which is why it is the oracle and not the product.  It
imports nothing from ``repro.extract.synthesis`` or ``repro.extract.kernels``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.errors import ExtractionError
from repro.extract.annotation import AnnotationExtractor
from repro.extract.base import Extractor
from repro.extract.confidence import ConfidenceModel
from repro.extract.dom import DomExtractor
from repro.extract.records import ErrorKind, ExtractionDebug, ExtractionRecord
from repro.extract.table import TableExtractor
from repro.extract.text import TextExtractor
from repro.kb.schema import Predicate, ValueKind
from repro.kb.triples import Triple
from repro.kb.values import EntityRef, StringValue, Value
from repro.rng import split_seed
from repro.world.content import (
    AnnotationBlock,
    DomRow,
    DomTree,
    Mention,
    TextDocument,
    WebTable,
)
from repro.world.literals import parse_literal, parse_literal_naive
from repro.world.webgen import WebPage

__all__ = [
    "ScalarReference",
    "classify_record",
    "covers",
    "emit",
    "extract_page",
    "extract_records",
    "reference_for",
    "transform",
]

_KIND_OF_VALUEKIND = {
    ValueKind.ENTITY: "entity",
    ValueKind.STRING: "string",
    ValueKind.NUMBER: "number",
    ValueKind.DATE: "date",
}


# ---------------------------------------------------------------------------
# Verbatim from src/repro/extract/confidence.py at 50498c8
# (``ConfidenceModel.transform``, one function per model class)
# ---------------------------------------------------------------------------


def _clip(x: float) -> float:
    return float(min(1.0, max(0.0, x)))


def _calibrated(self, signal: float, rng: np.random.Generator) -> float:
    return _clip(signal + float(rng.normal(0.0, self.noise)))


def _extreme(self, signal: float, rng: np.random.Generator) -> float:
    noisy = _clip(signal + float(rng.normal(0.0, self.noise)))
    # Logistic sharpening around 0.5.
    centered = (noisy - 0.5) * self.sharpness
    return _clip(0.5 + 0.5 * float(np.tanh(centered)))


def _centered(self, signal: float, rng: np.random.Generator) -> float:
    noisy = _clip(signal + float(rng.normal(0.0, self.noise)))
    return _clip(0.5 + (noisy - 0.5) * self.compression)


def _peaked(self, signal: float, rng: np.random.Generator) -> float:
    # Records the extractor is most sure of get medium reports, and
    # vice versa: reported = 1 - |signal - 0.5| * 2 folded around 0.55.
    folded = 1.0 - abs(signal - 0.55) * 1.6
    return _clip(folded + float(rng.normal(0.0, self.noise)))


def _uninformative(self, signal: float, rng: np.random.Generator) -> float:
    return float(rng.beta(0.4, 0.4))


_TRANSFORMS = {
    "calibrated": _calibrated,
    "extreme": _extreme,
    "centered": _centered,
    "peaked": _peaked,
    "uninformative": _uninformative,
}


def transform(model: ConfidenceModel, signal: float, rng: np.random.Generator) -> float:
    """Reported confidence for a record with raw ``signal`` in [0, 1]."""
    return _TRANSFORMS[model.name](model, signal, rng)


# ---------------------------------------------------------------------------
# Verbatim from src/repro/extract/base.py at 50498c8
# ---------------------------------------------------------------------------


class ScalarReference:
    """The scalar walk of one production extractor.

    Attributes not defined here (``profile``, ``schema``, ``linker``,
    ``seed``, ``name``, ``confidence_model``, ``record_content_type``,
    ``reliability_for`` and the families' pattern libraries and label
    maps) are read off the wrapped extractor.
    """

    def __init__(self, extractor: Extractor) -> None:
        self._extractor = extractor

    def __getattr__(self, name: str):
        return getattr(self._extractor, name)

    # ------------------------------------------------------------------
    # Page eligibility
    # ------------------------------------------------------------------
    def covers(self, page: WebPage) -> bool:
        """Deterministically decide whether this extractor processes ``page``."""
        profile = self.profile
        if profile.category_set is not None and page.category not in profile.category_set:
            return False
        if profile.page_coverage >= 1.0:
            return True
        draw = split_seed(self.seed, "coverage", self.name, page.url) % 1_000_000
        return draw / 1_000_000.0 < profile.page_coverage

    def page_rng(self, url: str) -> np.random.Generator:
        return np.random.default_rng(split_seed(self.seed, "extract", self.name, url))

    # ------------------------------------------------------------------
    # Linking and parsing
    # ------------------------------------------------------------------
    def link_entity(self, mention: Mention, predicate: Predicate | None) -> str | None:
        """Resolve an entity mention, honouring the type-hint knob."""
        hint = None
        if self.profile.use_type_hints and predicate is not None:
            hint = predicate.object_type_id
        return self.linker.resolve(mention.surface, type_hint=hint)

    def link_subject(self, mention: Mention, type_hint: str | None = None) -> str | None:
        hint = type_hint if self.profile.use_type_hints else None
        return self.linker.resolve(mention.surface, type_hint=hint)

    def parse_value(self, surface: str, kind: str) -> Value | None:
        if self.profile.naive_dates:
            return parse_literal_naive(surface, kind)
        return parse_literal(surface, kind)

    # ------------------------------------------------------------------
    # Record emission
    # ------------------------------------------------------------------
    def emit(
        self,
        page: WebPage,
        subject_id: str,
        predicate: Predicate,
        mention: Mention,
        rng: np.random.Generator,
        pattern: str | None,
        reliability: float,
        structure_penalty: float = 1.0,
        slot_mismatch: bool = False,
        alternates: tuple[Mention, ...] = (),
    ) -> ExtractionRecord | None:
        """Turn one (subject, predicate, object-mention) into a record.

        Returns None when the extractor's checks reject the mention.
        Applies misgrab (wrong-mention association against ``alternates``),
        kind checking, entity linkage (with string fallback), literal
        parsing, span mangling, and the confidence model.
        """
        profile = self.profile
        if (
            alternates
            and profile.misgrab_rate > 0
            and rng.random() < profile.misgrab_rate * (1.0 - reliability)
        ):
            # Exclude alternates by surface and kind, not object identity:
            # any same-surface same-kind alternate (a duplicate rendering of
            # this fact, or a different fact that happens to share the
            # surface) reproduces the correct triple when "misgrabbed", so
            # flagging it as a slot mismatch would mark a correct
            # extraction as a triple-identification error.
            pool = [
                m
                for m in alternates
                if m.kind != "empty"
                and (m.surface != mention.surface or m.kind != mention.kind)
            ]
            if pool:
                mention = pool[int(rng.integers(len(pool)))]
                slot_mismatch = True
                structure_penalty *= 0.8
        if mention.kind == "empty":
            return None
        if profile.value_kinds is not None and mention.kind not in profile.value_kinds:
            return None
        expected_kind = _KIND_OF_VALUEKIND[predicate.value_kind]
        if profile.kind_checking and mention.kind != expected_kind:
            # One exception: an entity mention can still satisfy a
            # *string*-valued predicate through the string fallback — the
            # raw surface is a well-kinded string object (the paper's
            # raw-string objects).  Everything else fails the kind check.
            if not (
                mention.kind == "entity"
                and expected_kind == "string"
                and profile.string_fallback
            ):
                return None

        span_corrupted = False
        surface = mention.surface
        if (
            profile.mangle_rate > 0
            and rng.random() < profile.mangle_rate * (1.0 - reliability)
            and " " in surface
        ):
            # Span error: keep only the last token ("Mapother IV" style).
            surface = surface.rsplit(" ", 1)[-1]
            span_corrupted = True

        ambiguity = 1
        value: Value | None
        if mention.kind == "entity" and profile.kind_checking and expected_kind == "string":
            # Kind-checked string predicate (the exception above): emit the
            # raw surface without linking — an EntityRef object would
            # contradict the extractor's own kind check.
            value = StringValue(surface)
        elif mention.kind == "entity":
            ambiguity = max(1, self.linker.ambiguity(surface))
            linked = self.linker.resolve(
                surface,
                type_hint=(
                    predicate.object_type_id if profile.use_type_hints else None
                ),
            )
            if linked is not None:
                value = EntityRef(linked)
            elif profile.string_fallback and not profile.kind_checking:
                # A kind checker never downgrades an *entity*-valued
                # predicate's object to a raw string.
                value = StringValue(surface)
            else:
                return None
        else:
            value = self.parse_value(surface, mention.kind)
            if value is None:
                return None

        # math.sqrt over np.sqrt: IEEE-identical on scalars and ~10x
        # cheaper than routing one float through a ufunc.
        signal = (
            reliability
            * structure_penalty
            * (1.0 / math.sqrt(ambiguity))
        )
        confidence = None
        if self.confidence_model is not None:
            confidence = transform(self.confidence_model, float(signal), rng)

        return ExtractionRecord(
            triple=Triple(subject_id, predicate.pid, value),
            extractor=self.name,
            url=page.url,
            site=page.site,
            content_type=self.record_content_type,
            pattern=pattern,
            confidence=confidence,
            debug=ExtractionDebug(
                asserted_index=mention.fact_ref,
                span_corrupted=span_corrupted,
                slot_mismatch=slot_mismatch,
            ),
        )


# ---------------------------------------------------------------------------
# Verbatim from src/repro/extract/text.py at 50498c8
# ---------------------------------------------------------------------------


class TextReference(ScalarReference):
    def extract_page(self, page: WebPage) -> list[ExtractionRecord]:
        rng = self.page_rng(page.url)
        records: list[ExtractionRecord] = []
        for element in page.elements:
            if not isinstance(element, TextDocument):
                continue
            # The document-wide mention pool is what a sloppy pattern can
            # accidentally associate with its predicate (misgrab).
            pool = tuple(
                mention
                for sentence in element.sentences
                for mention in sentence.objects
            )
            for sentence in element.sentences:
                records.extend(self._extract_sentence(page, sentence, pool, rng))
        return records

    def _extract_sentence(
        self,
        page: WebPage,
        sentence,
        pool: tuple,
        rng: np.random.Generator,
    ) -> list[ExtractionRecord]:
        pattern = self.patterns.get(sentence.template_id)
        if pattern is None:
            return []
        spec = self.templates[sentence.template_id]
        believed = self.schema.predicates.get(pattern.predicate)
        if believed is None:
            return []
        subject_id = self.link_subject(sentence.subject, type_hint=believed.type_id)
        if subject_id is None:
            return []
        records: list[ExtractionRecord] = []
        merged_penalty = 0.65 if (spec.merged and not pattern.handles_merged) else 1.0
        for slot, mention in enumerate(sentence.objects):
            declared = spec.slots[slot]
            if slot == 0 or not spec.merged:
                emitted_pid = pattern.predicate
            elif pattern.handles_merged:
                emitted_pid = declared
            else:
                emitted_pid = pattern.predicate
            predicate = self.schema.predicates.get(emitted_pid)
            if predicate is None:
                continue
            record = self.emit(
                page=page,
                subject_id=subject_id,
                predicate=predicate,
                mention=mention,
                rng=rng,
                pattern=pattern.pattern_id,
                reliability=pattern.reliability,
                structure_penalty=merged_penalty,
                slot_mismatch=(emitted_pid != declared and slot > 0),
                alternates=pool,
            )
            if record is not None:
                records.append(record)
        return records


# ---------------------------------------------------------------------------
# Verbatim from src/repro/extract/dom.py at 50498c8
# ---------------------------------------------------------------------------


class DomReference(ScalarReference):
    def extract_page(self, page: WebPage) -> list[ExtractionRecord]:
        rng = self.page_rng(page.url)
        records: list[ExtractionRecord] = []
        for element in page.elements:
            if isinstance(element, DomTree):
                records.extend(self._extract_tree(page, element, rng))
            elif isinstance(element, WebTable) and "TBL" in self.profile.content_types:
                records.extend(self._extract_table_as_dom(page, element, rng))
        return records

    def _extract_tree(
        self, page: WebPage, tree: DomTree, rng: np.random.Generator
    ) -> list[ExtractionRecord]:
        subject_id = self.link_subject(tree.subject)
        if subject_id is None:
            return []
        subject_type = self.linker.registry.get(subject_id).primary_type
        pool = tuple(cell for row in tree.rows for cell in row.cells)
        records: list[ExtractionRecord] = []
        for row in tree.rows:
            records.extend(
                self._extract_row(page, subject_id, subject_type, row, pool, rng)
            )
        return records

    def _extract_row(
        self,
        page: WebPage,
        subject_id: str,
        subject_type: str,
        row: DomRow,
        pool: tuple[Mention, ...],
        rng: np.random.Generator,
    ) -> list[ExtractionRecord]:
        records: list[ExtractionRecord] = []
        if row.merged and self.profile.handles_merged:
            # Understands the nested structure: route each cell to the
            # right predicate by sub-label (when rendered) or value kind.
            for index, cell in enumerate(row.cells):
                sub = (
                    row.cell_labels[index]
                    if row.cell_labels is not None
                    else {"date": "date", "entity": "place"}.get(cell.kind)
                )
                if sub == "date":
                    pid = self._typed_map.get((subject_type, "Born"))
                elif sub == "place":
                    pid = self._typed_map.get((subject_type, "Birthplace"))
                else:
                    continue  # the name cell — correctly skipped
                if pid is None:
                    continue
                predicate = self.schema.predicates[pid]
                record = self.emit(
                    page=page,
                    subject_id=subject_id,
                    predicate=predicate,
                    mention=cell,
                    rng=rng,
                    pattern=self._pattern_id(subject_type, row.label),
                    reliability=self.reliability_for(f"{subject_type}:{row.label}"),
                )
                if record is not None:
                    records.append(record)
            return records

        pid = self._resolve_label(row.label, subject_type)
        if pid is None:
            return records
        predicate = self.schema.predicates.get(pid)
        if predicate is None:
            return records
        reliability = self.reliability_for(f"{subject_type}:{row.label}")
        structure_penalty = 0.55 if row.merged else 1.0
        for cell in row.cells:
            record = self.emit(
                page=page,
                subject_id=subject_id,
                predicate=predicate,
                mention=cell,
                rng=rng,
                pattern=self._pattern_id(subject_type, row.label),
                reliability=reliability,
                structure_penalty=structure_penalty,
                slot_mismatch=row.merged,
                alternates=pool,
            )
            if record is not None:
                records.append(record)
        return records

    # ------------------------------------------------------------------
    def _extract_table_as_dom(
        self, page: WebPage, table: WebTable, rng: np.random.Generator
    ) -> list[ExtractionRecord]:
        """Walk a table the way a generic tree-walker would: assume the
        first column is the subject and headers are row labels."""
        records: list[ExtractionRecord] = []
        for row in table.rows:
            if not row:
                continue
            subject_mention = row[0]
            if subject_mention.kind != "entity":
                continue
            subject_id = self.link_subject(subject_mention)
            if subject_id is None:
                continue
            subject_type = self.linker.registry.get(subject_id).primary_type
            row_pool = tuple(row[1:])
            for column in range(1, min(len(row), len(table.headers))):
                pid = self._resolve_label(table.headers[column], subject_type)
                if pid is None:
                    continue
                predicate = self.schema.predicates.get(pid)
                if predicate is None:
                    continue
                record = self.emit(
                    page=page,
                    subject_id=subject_id,
                    predicate=predicate,
                    mention=row[column],
                    rng=rng,
                    pattern=self._pattern_id(subject_type, table.headers[column]),
                    reliability=self.reliability_for(f"tbl:{table.headers[column]}"),
                    alternates=row_pool,
                )
                if record is not None:
                    records.append(record)
        return records


# ---------------------------------------------------------------------------
# Verbatim from src/repro/extract/table.py at 50498c8
# ---------------------------------------------------------------------------


class TableReference(ScalarReference):
    def extract_page(self, page: WebPage) -> list[ExtractionRecord]:
        rng = self.page_rng(page.url)
        records: list[ExtractionRecord] = []
        for element in page.elements:
            if isinstance(element, WebTable):
                records.extend(self._extract_table(page, element, rng))
        return records

    def _extract_table(
        self, page: WebPage, table: WebTable, rng: np.random.Generator
    ) -> list[ExtractionRecord]:
        subject_col = self._subject_column(table)
        subject_type = self._majority_type(table, subject_col)
        column_pids: dict[int, str] = {}
        for col, header in enumerate(table.headers):
            if col == subject_col:
                continue
            pid = self._map_header(header, subject_type)
            if pid is not None:
                column_pids[col] = pid
        records: list[ExtractionRecord] = []
        for row in table.rows:
            if subject_col >= len(row) or row[subject_col].kind != "entity":
                continue
            subject_id = self.link_subject(row[subject_col], type_hint=subject_type)
            if subject_id is None:
                continue
            row_pool = tuple(
                cell for col, cell in enumerate(row) if col != subject_col
            )
            for col, pid in column_pids.items():
                if col >= len(row):
                    continue
                predicate = self.schema.predicates.get(pid)
                if predicate is None:
                    continue
                record = self.emit(
                    page=page,
                    subject_id=subject_id,
                    predicate=predicate,
                    mention=row[col],
                    rng=rng,
                    pattern=None,
                    reliability=self.reliability_for(f"hdr:{table.headers[col]}"),
                    alternates=row_pool,
                )
                if record is not None:
                    records.append(record)
        return records


# ---------------------------------------------------------------------------
# Verbatim from src/repro/extract/annotation.py at 50498c8
# ---------------------------------------------------------------------------


class AnnotationReference(ScalarReference):
    def extract_page(self, page: WebPage) -> list[ExtractionRecord]:
        rng = self.page_rng(page.url)
        records: list[ExtractionRecord] = []
        for element in page.elements:
            if not isinstance(element, AnnotationBlock):
                continue
            subject_id = self.link_subject(element.subject)
            if subject_id is None:
                continue
            pool = tuple(mention for _prop, mention in element.props)
            for prop, mention in element.props:
                pid = self._prop_map.get(prop)
                if pid is None:
                    continue
                predicate = self.schema.predicates.get(pid)
                if predicate is None:
                    continue
                record = self.emit(
                    page=page,
                    subject_id=subject_id,
                    predicate=predicate,
                    mention=mention,
                    rng=rng,
                    pattern=None,
                    reliability=self.reliability_for(prop),
                    alternates=pool,
                )
                if record is not None:
                    records.append(record)
        return records


# ---------------------------------------------------------------------------
# Verbatim from src/repro/extract/pipeline.py at 50498c8
# ---------------------------------------------------------------------------


def classify_record(record: ExtractionRecord, page: WebPage) -> ExtractionRecord:
    """Fill ``record.debug`` with the injected-error classification.

    Pure scalar reference: returns a new record when the classification
    differs from what the debug channel already carries, and ``record``
    itself — no copies — when it is already correct (the common case on
    re-classification, and the exact-match fast path either way, since
    fresh records default to ``error_kind=None`` / ``source_error=False``).
    The batched :func:`repro.extract.kernels.classify_batch` must agree
    with this function record-for-record; the parity tests compare them
    bitwise.
    """
    debug = record.debug
    if debug is None:
        raise ExtractionError(
            f"record from {record.extractor} lacks a debug channel; "
            "was it stripped before classification?"
        )
    if debug.asserted_index is None:
        kind: ErrorKind | None = ErrorKind.TRIPLE_IDENTIFICATION
        source_error = False
    else:
        asserted = page.assertions[debug.asserted_index]
        if debug.span_corrupted:
            kind = ErrorKind.TRIPLE_IDENTIFICATION
        elif record.triple == asserted.triple:
            kind = None
        elif debug.slot_mismatch:
            kind = ErrorKind.TRIPLE_IDENTIFICATION
        elif record.triple.predicate != asserted.triple.predicate:
            kind = ErrorKind.PREDICATE_LINKAGE
        else:
            kind = ErrorKind.ENTITY_LINKAGE
        source_error = kind is None and asserted.source_error
    if debug.error_kind is kind and debug.source_error == source_error:
        return record
    new = replace(debug, error_kind=kind, source_error=source_error)
    return replace(record, debug=new)


# ---------------------------------------------------------------------------
# Entry points: the scalar walk of a production extractor
# ---------------------------------------------------------------------------

_REFERENCES = (
    (TextExtractor, TextReference),
    (DomExtractor, DomReference),
    (TableExtractor, TableReference),
    (AnnotationExtractor, AnnotationReference),
)


def reference_for(extractor: Extractor) -> ScalarReference:
    """The scalar walk of ``extractor``'s family, wrapped around it."""
    for family, reference in _REFERENCES:
        if isinstance(extractor, family):
            return reference(extractor)
    raise TypeError(f"no scalar reference for {type(extractor).__name__}")


def covers(extractor: Extractor, page: WebPage) -> bool:
    return reference_for(extractor).covers(page)


def extract_page(extractor: Extractor, page: WebPage) -> list[ExtractionRecord]:
    return reference_for(extractor).extract_page(page)


def emit(extractor: Extractor, **kwargs) -> ExtractionRecord | None:
    return reference_for(extractor).emit(**kwargs)


def extract_records(extractors, pages) -> list[list[ExtractionRecord]]:
    """One classified record list per page, page-major then extractor-major:
    the per-page ``covers`` / ``extract_page`` / ``classify_record`` loop the
    pipeline's shard bodies used to be."""
    fleet = [reference_for(extractor) for extractor in extractors]
    return [
        [
            classify_record(record, page)
            for reference in fleet
            if reference.covers(page)
            for record in reference.extract_page(page)
        ]
        for page in pages
    ]
