"""Unit tests for the value containment hierarchy."""

import pytest

from repro.errors import SchemaError
from repro.kb.hierarchy import ValueHierarchy


@pytest.fixture
def chain():
    h = ValueHierarchy()
    h.add_edge("sf", "ca")
    h.add_edge("ca", "usa")
    h.add_edge("usa", "north_america")
    h.add_edge("nyc", "usa")
    return h


class TestEdges:
    def test_self_edge_rejected(self):
        with pytest.raises(SchemaError):
            ValueHierarchy().add_edge("a", "a")

    def test_second_parent_rejected(self, chain):
        with pytest.raises(SchemaError):
            chain.add_edge("sf", "usa")

    def test_cycle_rejected(self, chain):
        with pytest.raises(SchemaError):
            chain.add_edge("north_america", "sf")

    def test_children(self, chain):
        assert set(chain.children("usa")) == {"ca", "nyc"}
        assert chain.children("sf") == []


class TestQueries:
    def test_ancestors(self, chain):
        assert chain.ancestors("sf") == ["ca", "usa", "north_america"]
        assert chain.ancestors("north_america") == []

    def test_is_ancestor(self, chain):
        assert chain.is_ancestor("usa", "sf")
        assert not chain.is_ancestor("sf", "usa")
        assert not chain.is_ancestor("nyc", "sf")

    def test_related_covers_both_directions_and_identity(self, chain):
        assert chain.related("usa", "sf")
        assert chain.related("sf", "usa")
        assert chain.related("sf", "sf")
        assert not chain.related("sf", "nyc")
