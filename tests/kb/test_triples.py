"""Unit tests for triples and data items."""

import pytest

from repro.kb.triples import DataItem, Triple
from repro.kb.values import DateValue, EntityRef, StringValue


@pytest.fixture
def triple():
    return Triple("/m/07r1h", "people/person/birth_date", DateValue("1962-07-03"))


class TestTriple:
    def test_data_item(self, triple):
        assert triple.data_item == DataItem("/m/07r1h", "people/person/birth_date")

    def test_canonical_roundtrip(self, triple):
        assert Triple.from_canonical(triple.canonical()) == triple

    def test_from_canonical_rejects_malformed(self):
        with pytest.raises(ValueError):
            Triple.from_canonical("only|two")

    def test_hashable(self, triple):
        clone = Triple.from_canonical(triple.canonical())
        assert len({triple, clone}) == 1

    def test_ordering_handles_mixed_value_kinds(self):
        a = Triple("/m/1", "p", EntityRef("/m/2"))
        b = Triple("/m/1", "p", StringValue("raw"))
        assert sorted([b, a]) == sorted([a, b])

    def test_ordering_is_canonical_order(self):
        a = Triple("/m/1", "p", StringValue("a"))
        b = Triple("/m/1", "p", StringValue("b"))
        assert a < b
        assert b > a

    def test_comparison_with_non_triple_raises(self, triple):
        with pytest.raises(TypeError):
            _ = triple < 42


class TestDataItem:
    def test_canonical(self):
        assert DataItem("/m/1", "p").canonical() == "/m/1|p"

    def test_ordering(self):
        assert DataItem("/m/1", "a") < DataItem("/m/1", "b") < DataItem("/m/2", "a")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DataItem("/m/1", "p").subject = "/m/2"
