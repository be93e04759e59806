"""Knowledge triples and data items.

A triple is ``(subject, predicate, object)``; the ``(subject, predicate)``
pair is the *data item* — the unit over which fusion resolves conflicts
(§3.1.1: "in each triple the (subject, predicate) pair corresponds to a
'data item' in data fusion, and the object can be considered as a 'value'").
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.kb.values import DateValue, Value, parse_value  # DateValue used in doctests

__all__ = ["DataItem", "Triple", "item_text"]


@dataclass(frozen=True, slots=True, order=True)
class DataItem:
    """A ``(subject, predicate)`` pair: one aspect of one entity."""

    subject: str
    predicate: str

    def canonical(self) -> str:
        return f"{self.subject}|{self.predicate}"


@dataclass(frozen=True)
class Triple:
    """An RDF-style knowledge triple.

    ``subject`` is an entity id (mid-style string), ``predicate`` a predicate
    id from the schema, and ``obj`` a typed :data:`~repro.kb.values.Value`.
    Triples are frozen and hashable so they can key dictionaries throughout
    the fusion pipeline.  Ordering compares canonical strings, because the
    same data item can mix object kinds (an extractor's raw-string fallback
    next to a linked entity) and field-wise comparison would fail there.

    The hash is ``zlib.crc32`` of the canonical text, computed on the
    first ``__hash__`` (or taken from the text :meth:`from_canonical`
    parsed) and kept in a slot outside the dataclass fields, so every
    later probe is one attribute read.  It is the same in every process,
    so a pickle carries no stale hash and ``set[Triple]`` iterates in an
    order ``PYTHONHASHSEED`` cannot change.  Equality stays field-wise.
    """

    __slots__ = ("subject", "predicate", "obj", "_key")

    subject: str
    predicate: str
    obj: Value

    def __hash__(self) -> int:
        try:
            return self._key
        except AttributeError:
            return self._keyed(self.canonical())

    def _keyed(self, canonical: str) -> int:
        key = zlib.crc32(canonical.encode())
        object.__setattr__(self, "_key", key)
        return key

    def __reduce__(self):
        # The fields only: the key is recomputed where it is next needed.
        return Triple, (self.subject, self.predicate, self.obj)

    def __lt__(self, other: "Triple") -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.canonical() < other.canonical()

    @property
    def data_item(self) -> DataItem:
        return DataItem(self.subject, self.predicate)

    def canonical(self) -> str:
        return f"{self.subject}|{self.predicate}|{self.obj.canonical()}"

    @staticmethod
    def from_canonical(text: str) -> "Triple":
        """Inverse of :meth:`canonical`.

        >>> t = Triple("/m/07r1h", "people/person/birth_date", DateValue("1962-07-03"))
        >>> Triple.from_canonical(t.canonical()) == t
        True
        """
        parts = text.split("|", 2)
        if len(parts) != 3:
            raise ValueError(f"not a canonical triple string: {text!r}")
        subject, predicate, value_text = parts
        value = parse_value(value_text)
        triple = Triple(subject, predicate, value)
        # A number spelled otherwise than canonically ("number:1986.0")
        # parses to a value whose text differs: key the canonical text.
        triple._keyed(text if value.canonical() == value_text else triple.canonical())
        return triple


def item_text(text: str) -> str:
    """The data item of a canonical triple text, as
    :meth:`DataItem.canonical` spells it: the text before its second ``|``
    (subjects and predicates hold none; an object may).

    >>> item_text("/m/1|p/t/name|string:a|b")
    '/m/1|p/t/name'
    """
    return text[: text.index("|", text.index("|") + 1)]
