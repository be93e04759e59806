"""Unit tests for the type/predicate schema."""

import pytest

from repro.errors import SchemaError
from repro.kb.schema import EntityType, Predicate, Schema, ValueKind


def make_schema() -> Schema:
    schema = Schema()
    schema.add_type(EntityType("people/person"))
    schema.add_type(EntityType("book/book"))
    schema.add_predicate(
        Predicate(
            pid="people/person/birth_date",
            type_id="people/person",
            value_kind=ValueKind.DATE,
        )
    )
    schema.add_predicate(
        Predicate(
            pid="book/book/author",
            type_id="book/book",
            value_kind=ValueKind.ENTITY,
            functional=False,
            max_truths=2,
            object_type_id="people/person",
            confusable_with="book/book/editor",
        )
    )
    schema.add_predicate(
        Predicate(
            pid="book/book/editor",
            type_id="book/book",
            value_kind=ValueKind.ENTITY,
            functional=False,
            max_truths=2,
            object_type_id="people/person",
            confusable_with="book/book/author",
        )
    )
    return schema


class TestEntityType:
    @pytest.mark.parametrize("bad", ["person", "a/b/c", ""])
    def test_rejects_malformed_ids(self, bad):
        with pytest.raises(SchemaError):
            EntityType(bad)


class TestPredicate:
    def test_functional_needs_single_truth(self):
        with pytest.raises(SchemaError):
            Predicate(
                pid="t/t/p", type_id="t/t", value_kind=ValueKind.STRING, max_truths=3
            )

    def test_non_functional_needs_multiple_truths(self):
        with pytest.raises(SchemaError):
            Predicate(
                pid="t/t/p",
                type_id="t/t",
                value_kind=ValueKind.STRING,
                functional=False,
                max_truths=1,
            )

    def test_entity_valued_needs_object_type(self):
        with pytest.raises(SchemaError):
            Predicate(pid="t/t/p", type_id="t/t", value_kind=ValueKind.ENTITY)


class TestSchema:
    def test_duplicate_type_rejected(self):
        schema = Schema()
        schema.add_type(EntityType("a/b"))
        with pytest.raises(SchemaError):
            schema.add_type(EntityType("a/b"))

    def test_duplicate_predicate_rejected(self):
        schema = make_schema()
        with pytest.raises(SchemaError):
            schema.add_predicate(
                Predicate(
                    pid="people/person/birth_date",
                    type_id="people/person",
                    value_kind=ValueKind.DATE,
                )
            )

    def test_predicate_requires_known_type(self):
        schema = Schema()
        with pytest.raises(SchemaError):
            schema.add_predicate(
                Predicate(pid="x/y/z", type_id="x/y", value_kind=ValueKind.STRING)
            )

    def test_lookup_unknown_predicate(self):
        with pytest.raises(SchemaError):
            make_schema().predicate("nope/nope/nope")

    def test_predicates_of_type_sorted(self):
        schema = make_schema()
        pids = [p.pid for p in schema.predicates_of_type("book/book")]
        assert pids == ["book/book/author", "book/book/editor"]

    def test_validate_passes_on_consistent_schema(self):
        make_schema().validate()

    def test_validate_rejects_dangling_confusable(self):
        schema = Schema()
        schema.add_type(EntityType("a/b"))
        schema.add_predicate(
            Predicate(
                pid="a/b/p",
                type_id="a/b",
                value_kind=ValueKind.STRING,
                confusable_with="a/b/ghost",
            )
        )
        with pytest.raises(SchemaError):
            schema.validate()

    def test_validate_rejects_cross_type_confusable(self):
        schema = make_schema()
        schema.add_predicate(
            Predicate(
                pid="people/person/knows",
                type_id="people/person",
                value_kind=ValueKind.ENTITY,
                functional=False,
                max_truths=5,
                object_type_id="people/person",
                confusable_with="book/book/author",
            )
        )
        with pytest.raises(SchemaError):
            schema.validate()
