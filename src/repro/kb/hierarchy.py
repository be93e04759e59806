"""Containment hierarchy over entity values.

§4.4 and future direction 4 of the paper hinge on hierarchical value
spaces: "North America > USA > CA > San Francisco County > San Francisco".
A triple asserting the more general value (birth place = USA) is *true but
less specific* than one asserting the city; the LCWA gold standard and the
error analysis must both recognise this, and the hierarchical fusion
extension propagates support along these chains.

The hierarchy is a forest: every entity has at most one parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError

__all__ = ["ValueHierarchy"]


@dataclass
class ValueHierarchy:
    """A parent-pointer forest over entity ids."""

    _parent: dict[str, str] = field(default_factory=dict)
    _children: dict[str, list[str]] = field(default_factory=dict)

    def add_edge(self, child: str, parent: str) -> None:
        """Declare ``parent`` as the container of ``child``."""
        if child == parent:
            raise SchemaError(f"{child} cannot contain itself")
        if child in self._parent:
            raise SchemaError(f"{child} already has parent {self._parent[child]}")
        # Reject cycles: walking up from `parent` must not reach `child`.
        cursor: str | None = parent
        while cursor is not None:
            if cursor == child:
                raise SchemaError(f"edge {child}->{parent} would create a cycle")
            cursor = self._parent.get(cursor)
        self._parent[child] = parent
        self._children.setdefault(parent, []).append(child)

    def children(self, entity_id: str) -> list[str]:
        return list(self._children.get(entity_id, []))

    def ancestors(self, entity_id: str) -> list[str]:
        """Ancestors from immediate parent up to the root (excluding self)."""
        chain: list[str] = []
        cursor = self._parent.get(entity_id)
        while cursor is not None:
            chain.append(cursor)
            cursor = self._parent.get(cursor)
        return chain

    def is_ancestor(self, ancestor: str, descendant: str) -> bool:
        """True if ``ancestor`` strictly contains ``descendant``."""
        return ancestor in self.ancestors(descendant)

    def related(self, a: str, b: str) -> bool:
        """True if one of ``a``/``b`` contains the other (or they are equal)."""
        return a == b or self.is_ancestor(a, b) or self.is_ancestor(b, a)
