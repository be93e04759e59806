"""Unit tests for entities and the registry."""

import pickle

import pytest

from repro.errors import SchemaError
from repro.kb.entities import Entity, EntityRegistry


@pytest.fixture
def registry():
    reg = EntityRegistry()
    reg.add(
        Entity(
            entity_id="/m/1",
            type_ids=("people/person",),
            name="Tom Cruise",
            aliases=("T. Cruise",),
        )
    )
    reg.add(
        Entity(
            entity_id="/m/2",
            type_ids=("book/book",),
            name="Les Miserables",
        )
    )
    reg.add(
        Entity(
            entity_id="/m/3",
            type_ids=("theater/show",),
            name="Les Miserables (show)",
            aliases=("Les Miserables",),
        )
    )
    return reg


class TestEntity:
    def test_surface_forms_include_name_and_aliases(self):
        entity = Entity("/m/9", ("a/b",), "Alpha", aliases=("Al",))
        assert entity.surface_forms() == ("Alpha", "Al")

    def test_primary_type(self):
        entity = Entity("/m/9", ("a/b", "c/d"), "Alpha")
        assert entity.primary_type == "a/b"


class TestRegistry:
    def test_len(self, registry):
        assert len(registry) == 3

    def test_duplicate_rejected(self, registry):
        with pytest.raises(SchemaError):
            registry.add(Entity("/m/1", ("a/b",), "Clone"))

    def test_entity_without_types_rejected(self):
        with pytest.raises(SchemaError):
            EntityRegistry().add(Entity("/m/1", (), "Typeless"))

    def test_get_unknown_raises(self, registry):
        with pytest.raises(SchemaError):
            registry.get("/m/404")

    def test_of_type(self, registry):
        people = registry.of_type("people/person")
        assert [e.entity_id for e in people] == ["/m/1"]
        assert registry.of_type("no/such") == ()

    def test_of_type_hands_out_one_cached_tuple(self, registry):
        assert registry.of_type("book/book") is registry.of_type("book/book")

    def test_add_refreshes_of_type(self, registry):
        before = registry.of_type("book/book")
        assert registry.of_type("no/such") == ()
        registry.add(Entity("/m/4", ("book/book", "no/such"), "Germinal"))
        assert [e.entity_id for e in registry.of_type("book/book")] == ["/m/2", "/m/4"]
        assert [e.entity_id for e in registry.of_type("no/such")] == ["/m/4"]
        assert [e.entity_id for e in before] == ["/m/2"]

    def test_of_type_memo_is_neither_compared_nor_pickled(self, registry):
        cold = pickle.dumps(registry)
        twin = pickle.loads(cold)
        registry.of_type("book/book")
        assert registry == twin
        assert pickle.dumps(registry) == cold
        assert "_typed" not in repr(registry)

    def test_candidates_for_unambiguous_name(self, registry):
        assert [e.entity_id for e in registry.candidates_for("Tom Cruise")] == ["/m/1"]

    def test_candidates_for_shared_surface(self, registry):
        ids = {e.entity_id for e in registry.candidates_for("Les Miserables")}
        assert ids == {"/m/2", "/m/3"}

    def test_candidates_for_alias(self, registry):
        assert [e.entity_id for e in registry.candidates_for("T. Cruise")] == ["/m/1"]

    def test_iteration_order_is_insertion_order(self, registry):
        assert [e.entity_id for e in registry] == ["/m/1", "/m/2", "/m/3"]
