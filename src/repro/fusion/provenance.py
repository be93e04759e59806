"""Provenance keys: flattening the 3-D input to 2-D sources.

§4.1: "We reduce the dimension of the KF input by considering each
(Extractor, URL) pair as a data source, which we call a provenance."
§4.3.1 then varies the granularity: site instead of URL, plus the
predicate, plus the pattern.  Figure 9 additionally diagnoses two
degenerate flattenings — extractor-pattern only ("Only ext") and URL only
("Only src").

A provenance key is a plain tuple of strings, cheap to hash and to sort
(the MapReduce shuffle orders keys).
"""

from __future__ import annotations

import enum

from repro.errors import FusionError
from repro.extract.records import ExtractionRecord

__all__ = ["Granularity", "provenance_key", "KEY_FIELDS", "PROVENANCE_LEVELS"]


class Granularity(enum.Enum):
    """How extraction records are flattened into data-fusion sources."""

    EXTRACTOR_URL = "extractor_url"
    EXTRACTOR_SITE = "extractor_site"
    EXTRACTOR_SITE_PREDICATE = "extractor_site_predicate"
    EXTRACTOR_SITE_PREDICATE_PATTERN = "extractor_site_predicate_pattern"
    EXTRACTOR_PATTERN_ONLY = "extractor_pattern_only"  # Fig 9 "Only ext"
    URL_ONLY = "url_only"  # Fig 9 "Only src"


PROVENANCE_LEVELS: tuple[Granularity, ...] = (
    Granularity.EXTRACTOR_URL,
    Granularity.EXTRACTOR_SITE,
    Granularity.EXTRACTOR_SITE_PREDICATE,
    Granularity.EXTRACTOR_SITE_PREDICATE_PATTERN,
)


#: The record fields each granularity keys on, in key order — the table
#: form of :func:`provenance_key`, which the claim accumulator applies to
#: whole code columns (``predicate`` is the triple's; a missing
#: ``pattern`` reads ``"<extractor>:-"``).
KEY_FIELDS: dict[Granularity, tuple[str, ...]] = {
    Granularity.EXTRACTOR_URL: ("extractor", "url"),
    Granularity.EXTRACTOR_SITE: ("extractor", "site"),
    Granularity.EXTRACTOR_SITE_PREDICATE: ("extractor", "site", "predicate"),
    Granularity.EXTRACTOR_SITE_PREDICATE_PATTERN: (
        "extractor",
        "site",
        "predicate",
        "pattern",
    ),
    Granularity.EXTRACTOR_PATTERN_ONLY: ("pattern",),
    Granularity.URL_ONLY: ("url",),
}


def provenance_key(record: ExtractionRecord, granularity: Granularity) -> tuple[str, ...]:
    """The data-fusion source this record belongs to under ``granularity``."""
    pattern = record.pattern if record.pattern is not None else f"{record.extractor}:-"
    if granularity is Granularity.EXTRACTOR_URL:
        return (record.extractor, record.url)
    if granularity is Granularity.EXTRACTOR_SITE:
        return (record.extractor, record.site)
    if granularity is Granularity.EXTRACTOR_SITE_PREDICATE:
        return (record.extractor, record.site, record.triple.predicate)
    if granularity is Granularity.EXTRACTOR_SITE_PREDICATE_PATTERN:
        return (record.extractor, record.site, record.triple.predicate, pattern)
    if granularity is Granularity.EXTRACTOR_PATTERN_ONLY:
        return (pattern,)
    if granularity is Granularity.URL_ONLY:
        return (record.url,)
    raise FusionError(f"unknown granularity {granularity!r}")
