"""Knowledge triples and data items.

A triple is ``(subject, predicate, object)``; the ``(subject, predicate)``
pair is the *data item* — the unit over which fusion resolves conflicts
(§3.1.1: "in each triple the (subject, predicate) pair corresponds to a
'data item' in data fusion, and the object can be considered as a 'value'").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kb.values import DateValue, Value, parse_value  # DateValue used in doctests

__all__ = ["DataItem", "Triple"]


@dataclass(frozen=True, slots=True, order=True)
class DataItem:
    """A ``(subject, predicate)`` pair: one aspect of one entity."""

    subject: str
    predicate: str

    def canonical(self) -> str:
        return f"{self.subject}|{self.predicate}"


@dataclass(frozen=True, slots=True)
class Triple:
    """An RDF-style knowledge triple.

    ``subject`` is an entity id (mid-style string), ``predicate`` a predicate
    id from the schema, and ``obj`` a typed :data:`~repro.kb.values.Value`.
    Triples are frozen and hashable so they can key dictionaries throughout
    the fusion pipeline.  Ordering compares canonical strings, because the
    same data item can mix object kinds (an extractor's raw-string fallback
    next to a linked entity) and field-wise comparison would fail there.
    """

    subject: str
    predicate: str
    obj: Value

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
        return Triple(subject, predicate, parse_value(value_text))
