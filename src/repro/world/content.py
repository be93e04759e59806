"""Renderable web-content models.

A web page asserts facts; this module defines the four surface shapes those
assertions take, mirroring §3.1.2 of the paper:

- :class:`TextDocument` — sentences ("Tom Cruise is an American film actor
  and producer"), where triples hide in templated phrasing;
- :class:`DomTree` — infobox-style label/value rows, optionally *merged*
  (one ``Born`` row holding a name, a date and a place), the shape that
  trips naive DOM extractors;
- :class:`WebTable` — relational rows × attribute columns;
- :class:`AnnotationBlock` — schema.org-ish ``itemprop`` markup.

Every value slot is a :class:`Mention`: a surface string plus a kind tag.
Extractors work from surfaces only.  The ``fact_ref`` field is a **debug
channel** — it indexes the page's hidden assertion list so the evaluation
layer can classify extraction errors (triple identification vs. entity
linkage vs. predicate linkage); extractors must never read it, and the test
suite enforces that the fusion layer cannot see it at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = [
    "Mention",
    "Sentence",
    "TextDocument",
    "DomRow",
    "DomTree",
    "WebTable",
    "AnnotationBlock",
    "ContentElement",
]


@dataclass(frozen=True, slots=True)
class Mention:
    """A surface occurrence of an entity or literal.

    ``kind`` is one of ``entity|string|number|date`` and reflects how the
    renderer formatted the slot (which an extractor can also sniff from the
    surface); ``fact_ref`` is debug-only (see module docstring).
    """

    surface: str
    kind: str
    fact_ref: int | None = None


@dataclass(frozen=True, slots=True)
class Sentence:
    """One templated sentence expressing 1+ facts about a subject.

    ``template_id`` names the phrasing (e.g. ``person_birth``); pattern
    libraries key on it, the way a distant-supervision extractor keys on a
    learned lexical pattern.  ``objects`` holds one mention per asserted
    fact; conjunction templates carry several ("... film actor and
    producer" asserts two professions).
    """

    template_id: str
    subject: Mention
    objects: tuple[Mention, ...]
    text: str


@dataclass(frozen=True, slots=True)
class TextDocument:
    """A run of prose: the TXT content type."""

    sentences: tuple[Sentence, ...]

    content_type = "TXT"


@dataclass(frozen=True, slots=True)
class DomRow:
    """One ``<tr>``-ish row of an infobox.

    ``label`` is the visible attribute name ("Born", "Director"...).
    ``cells`` are the value mentions.  ``merged`` marks rows that pack
    values of *different* predicates into one label (the paper's Wikipedia
    ``Born`` example holds the full name, the date, and the birthplace) —
    extractors that flatten merged rows commit triple-identification errors.
    ``cell_labels`` optionally gives a sub-label per cell (present only when
    the site renders nested ``<span>`` scaffolding that good extractors use).
    """

    label: str
    cells: tuple[Mention, ...]
    merged: bool = False
    cell_labels: tuple[str, ...] | None = None


@dataclass(frozen=True, slots=True)
class DomTree:
    """An infobox-like DOM fragment about one subject: the DOM content type."""

    subject: Mention
    rows: tuple[DomRow, ...]

    content_type = "DOM"


@dataclass(frozen=True, slots=True)
class WebTable:
    """A relational web table: the TBL content type.

    Row ``r``'s subject is ``rows[r][subject_col]``; column ``c`` holds the
    attribute named by ``headers[c]``.  Header strings are surface words
    and may be ambiguous ("Year") — resolving them to predicates is the
    schema-mapping task of the TBL extractors.
    """

    caption: str
    headers: tuple[str, ...]
    rows: tuple[tuple[Mention, ...], ...]
    subject_col: int = 0


@dataclass(frozen=True, slots=True)
class AnnotationBlock:
    """Webmaster-authored markup (schema.org style): the ANO content type."""

    subject: Mention
    props: tuple[tuple[str, Mention], ...]  # (itemprop, value)

    content_type = "ANO"


ContentElement = Union[TextDocument, DomTree, WebTable, AnnotationBlock]
