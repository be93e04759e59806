"""Extractor base class and behaviour profile.

Every concrete extractor (text, DOM, table, annotation) is parameterised by
an :class:`ExtractorProfile` — the knob set that makes TXT1 differ from
TXT4 without duplicating parser code.  The paper's Table 2 spread (accuracy
0.09-0.78, volumes over 3 orders of magnitude) is reproduced by profile
values in :mod:`repro.datasets.profiles`, not by separate implementations.

Determinism: whether an extractor processes a page, and every noisy choice
it makes on that page, derive from ``split_seed(seed, extractor, url)`` —
so corpus-level extraction is reproducible and insensitive to page order.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.extract.confidence import ConfidenceModel, make_confidence_model
from repro.extract.linkage import EntityLinker
from repro.extract.records import ExtractionRecord
from repro.extract.synthesis import (
    PageRNGBank,
    SynthesisCaches,
    _gc_paused,
    make_emitter,
    seed_array,
)
from repro.kb.schema import Schema
from repro.rng import split_seed, stream_seed
from repro.world.webgen import WebPage

__all__ = ["ExtractorProfile", "Extractor"]


@dataclass(frozen=True)
class ExtractorProfile:
    """Behavioural knobs for one extractor.

    Attributes
    ----------
    name / content_types / site_categories / page_coverage:
        Identity, which content it parses, which site categories it runs on
        (None = all), and the fraction of eligible pages it processes —
        jointly controlling extraction volume (Table 2's #Triples spread).
    linker / use_type_hints:
        Which shared linkage component to use, and whether the extractor
        passes the predicate's object type as a disambiguation hint.
    kind_checking:
        Whether it skips mentions whose value kind contradicts the
        predicate (a precision feature).
    handles_merged:
        Whether it understands merged structures (DOM "Born" rows, merged
        sentences); if not, it flattens them — triple-identification errors.
    naive_dates:
        Whether it parses dates with the naive month-first rule.
    string_fallback:
        Whether an unlinkable entity mention is emitted as a raw string
        (the paper's 80M raw-string objects) instead of skipped.
    pattern_coverage / wrong_predicate_rate / reliability_mean /
    reliability_concentration:
        Pattern-library shape (text and patterned DOM extractors): what
        fraction of phrasings it has patterns for, how often a pattern maps
        to a wrong (confusable) predicate, and the Beta distribution of
        pattern reliability.
    mangle_rate:
        Extra mechanical span corruption (truncating a mention before
        linking), scaled by (1 - pattern reliability).
    misgrab_rate:
        Probability (scaled by 1 - reliability) of associating the *wrong
        mention* on the element with the predicate — the bread-and-butter
        triple-identification error ("taking part of the album name as the
        artist for the album"): the data item stays valid, the object comes
        from a different fact, so LCWA labels the result false.
    confidence:
        Confidence-model name (see :mod:`repro.extract.confidence`).
    global_label_map:
        DOM: resolve row labels without knowing the subject's type
        (cross-type label collisions become predicate-linkage errors).
    value_kinds:
        Restrict extraction to these value kinds (DOM3 links entities only,
        DOM4 scrapes literals only); None = all kinds.
    detect_subject_col / type_aware_headers:
        Table extractors: detect the subject column by linkability instead
        of assuming column 0, and resolve ambiguous headers using the
        rows' entity type.
    """

    name: str
    content_types: tuple[str, ...]
    site_categories: tuple[str, ...] | None = None
    page_coverage: float = 1.0
    linker: str = "EL-A"
    use_type_hints: bool = False
    kind_checking: bool = False
    handles_merged: bool = False
    naive_dates: bool = False
    string_fallback: bool = True
    pattern_coverage: float = 1.0
    wrong_predicate_rate: float = 0.0
    reliability_mean: float = 0.8
    reliability_concentration: float = 10.0
    mangle_rate: float = 0.0
    misgrab_rate: float = 0.0
    confidence: str = "calibrated"
    global_label_map: bool = False
    value_kinds: tuple[str, ...] | None = None
    detect_subject_col: bool = False
    type_aware_headers: bool = False

    def __post_init__(self) -> None:
        if not self.content_types:
            raise ConfigError(f"extractor {self.name} handles no content types")
        unknown = set(self.content_types) - {"TXT", "DOM", "TBL", "ANO"}
        if unknown:
            raise ConfigError(f"extractor {self.name}: unknown content {unknown}")
        # Derived, not a field: the coverage checks test membership per
        # page, so the tuple is hoisted to a frozenset once here instead
        # of per coverage_mask() call.  (Kept out of the dataclass fields
        # so repr/eq — and the scenario cache key built from them — are
        # untouched.)
        object.__setattr__(
            self,
            "category_set",
            frozenset(self.site_categories)
            if self.site_categories is not None
            else None,
        )
        for field_name in (
            "page_coverage",
            "pattern_coverage",
            "wrong_predicate_rate",
            "reliability_mean",
            "mangle_rate",
            "misgrab_rate",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    f"extractor {self.name}: {field_name} must be in [0,1], got {value}"
                )


class Extractor(abc.ABC):
    """Base class: page eligibility and the per-page-seeded batch driver;
    a family supplies the walk over its content (:meth:`_synthesize_page`)."""

    def __init__(
        self,
        profile: ExtractorProfile,
        schema: Schema,
        linker: EntityLinker,
        seed: int,
    ) -> None:
        self.profile = profile
        self.schema = schema
        self.linker = linker
        self.seed = seed
        self.confidence_model: ConfidenceModel | None = make_confidence_model(
            profile.confidence
        )
        # Memo for reliability_for(): pattern/label keys repeat across
        # pages and the draw is pure in (seed, name, key).
        self._reliability_cache: dict[str, float] = {}

    @property
    def name(self) -> str:
        return self.profile.name

    # ------------------------------------------------------------------
    # Page eligibility
    # ------------------------------------------------------------------
    def coverage_mask(self, pages: Sequence[WebPage]) -> np.ndarray:
        """Deterministically decide which of ``pages`` this extractor processes.

        A page is covered when its site category is one the profile runs
        on and its draw ``split_seed(seed, "coverage", name, url)`` falls
        under ``page_coverage``.  The seed derivation is factored into a
        shared per-extractor prefix so each page costs one hash instead
        of three — the coverage draws dominate pipeline dispatch on large
        corpora (12 extractors × every page).
        """
        profile = self.profile
        n = len(pages)
        if n == 0:
            return np.zeros(0, dtype=bool)
        mask = np.ones(n, dtype=bool)
        if profile.category_set is not None:
            categories = profile.category_set
            mask &= np.fromiter(
                (page.category in categories for page in pages), bool, count=n
            )
        if profile.page_coverage < 1.0:
            prefix = split_seed(self.seed, "coverage", self.name)
            draws = np.fromiter(
                (stream_seed(prefix, page.url) % 1_000_000 for page in pages),
                np.float64,
                count=n,
            )
            mask &= (draws / 1_000_000.0) < profile.page_coverage
        return mask

    # Subclasses set this to the content type their records carry.
    record_content_type: str = "TXT"

    # ------------------------------------------------------------------
    # Extraction API
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _synthesize_page(self, page: WebPage, emit) -> list[ExtractionRecord]:
        """The family's walk over ``page``: every (subject, predicate,
        mention) it identifies goes through ``emit`` — the prebound record
        emitter of :func:`repro.extract.synthesis.make_emitter`, already
        switched onto this page's RNG stream — with an
        :func:`~repro.extract.synthesis.emit_plan` carrying the
        per-predicate constants."""

    def extract_pages_batch(
        self,
        pages: Sequence[WebPage],
        mask: np.ndarray | None = None,
        caches: SynthesisCaches | None = None,
    ) -> list[list[ExtractionRecord]]:
        """The records of every page of ``pages``: one list per page.

        ``mask`` (default :meth:`coverage_mask`) says which pages to
        process; the others get an empty list without consuming any seed.
        One seed per covered page comes from a shared-prefix seed array
        keyed ``(seed, "extract", name, url)``, the per-page generators
        are provisioned through one vectorised
        :class:`~repro.extract.synthesis.PageRNGBank`, and each page's
        draws replay through :meth:`_synthesize_page`.
        """
        if mask is None:
            mask = self.coverage_mask(pages)
        per_page: list[list[ExtractionRecord]] = [[] for _ in pages]
        covered = np.flatnonzero(mask).tolist()
        if not covered:
            return per_page
        if caches is None:
            caches = SynthesisCaches()
        urls = [pages[index].url for index in covered]
        bank = PageRNGBank(seed_array(self.seed, ("extract", self.name), urls))
        emit = make_emitter(self, bank.generator, caches)
        synthesize_page = self._synthesize_page
        reset = bank.reset
        with _gc_paused():
            for slot, index in enumerate(covered):
                reset(slot)
                per_page[index] = synthesize_page(pages[index], emit)
        return per_page

    def reliability_for(self, key: str) -> float:
        """Deterministic per-(extractor, key) reliability draw from the
        profile's Beta distribution; ``key`` is a pattern/label identity.

        Memoized per extractor: the draw is a pure function of
        ``(seed, name, key)`` and the same pattern/label keys recur for
        every page, so caching is bit-identical — it skips re-seeding a
        fresh ``Generator`` per call, one of the record-synthesis
        hot spots.
        """
        cached = self._reliability_cache.get(key)
        if cached is not None:
            return cached
        mean = self.profile.reliability_mean
        conc = self.profile.reliability_concentration
        alpha = max(mean * conc, 1e-3)
        beta = max((1.0 - mean) * conc, 1e-3)
        rng = np.random.default_rng(split_seed(self.seed, "rel", self.name, key))
        value = float(rng.beta(alpha, beta))
        self._reliability_cache[key] = value
        return value
