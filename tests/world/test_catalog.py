"""Unit tests for the type/predicate catalogue."""

import pytest

from repro.world.catalog import (
    CATALOG,
    build_schema,
    predicate_spec,
    selected_types,
)


class TestSelectedTypes:
    def test_core_types_always_present(self):
        specs = selected_types(2)
        ids = {s.type_id for s in specs}
        assert {"location/location", "organization/organization", "people/person"} <= ids

    def test_full_catalog(self):
        assert len(selected_types(len(CATALOG))) == len(CATALOG)

    def test_oversized_request_clamped(self):
        assert len(selected_types(999)) == len(CATALOG)


class TestBuildSchema:
    def test_schema_validates(self):
        for n in (2, 5, len(CATALOG)):
            schema, _specs = build_schema(n)
            schema.validate()

    def test_non_functional_share_near_paper(self):
        """Table 3: 72% of predicates are non-functional; the catalogue
        should be in that neighbourhood (±20 points) at full size."""
        schema, _ = build_schema(len(CATALOG))
        predicates = schema.predicates.values()
        non_functional = sum(not p.functional for p in predicates) / len(predicates)
        assert 0.3 <= non_functional <= 0.8

    def test_confusable_pairs_survive(self):
        schema, _ = build_schema(len(CATALOG))
        author = schema.predicate("book/book/author")
        assert author.confusable_with == "book/book/editor"

    def test_hierarchical_predicates_exist(self):
        schema, _ = build_schema(len(CATALOG))
        assert any(p.hierarchical for p in schema.predicates.values())

    def test_dropped_object_types_remove_predicates(self):
        # With few types, predicates pointing at excluded types vanish.
        schema, _ = build_schema(2)
        for predicate in schema.predicates.values():
            if predicate.object_type_id is not None:
                assert predicate.object_type_id in schema.types


class TestPredicateSpec:
    def test_lookup(self):
        _schema, specs = build_schema(len(CATALOG))
        spec = predicate_spec(specs, "people/person/birth_date")
        assert spec.name == "birth_date"

    def test_lookup_unknown_raises(self):
        _schema, specs = build_schema(len(CATALOG))
        with pytest.raises(KeyError):
            predicate_spec(specs, "no/such/predicate")
