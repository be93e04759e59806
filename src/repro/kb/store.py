"""Indexed triple store.

:class:`KnowledgeBase` is the Freebase stand-in: a set of triples with
an index by data item.  It is used twice in the pipeline — once as the
*snapshot* against which the LCWA gold standard is built, and once as
the destination the fused triples would be written to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kb.triples import DataItem, Triple
from repro.kb.values import Value

__all__ = ["KnowledgeBase"]


@dataclass
class KnowledgeBase:
    """A set of knowledge triples with the index LCWA labelling needs.

    The store is append-only (Freebase snapshots do not lose facts during a
    fusion run); adding a duplicate triple is a no-op so ingestion is
    idempotent.
    """

    name: str = "kb"
    _triples: set[Triple] = field(default_factory=set)
    _by_item: dict[DataItem, list[Triple]] = field(default_factory=dict)

    def add(self, triple: Triple) -> bool:
        """Insert ``triple``; return True if it was new."""
        if triple in self._triples:
            return False
        self._triples.add(triple)
        self._by_item.setdefault(triple.data_item, []).append(triple)
        return True

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def has_item(self, item: DataItem) -> bool:
        """True if the KB knows *any* value for this data item.

        This is the LCWA gate: a triple absent from the KB is only labelled
        false when its data item is present.
        """
        return item in self._by_item

    def values_for(self, item: DataItem) -> list[Value]:
        """The object values the KB stores for ``item`` (possibly many)."""
        return [t.obj for t in self._by_item.get(item, [])]
