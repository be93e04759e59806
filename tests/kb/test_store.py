"""Unit tests for the indexed triple store."""

import pytest

from repro.kb.store import KnowledgeBase
from repro.kb.triples import DataItem, Triple
from repro.kb.values import DateValue, StringValue


@pytest.fixture
def kb():
    store = KnowledgeBase()
    store.add(Triple("/m/1", "p/t/birth_date", DateValue("1962-07-03")))
    store.add(Triple("/m/1", "p/t/profession", StringValue("actor")))
    store.add(Triple("/m/1", "p/t/profession", StringValue("producer")))
    store.add(Triple("/m/2", "p/t/birth_date", DateValue("1970-01-01")))
    return store


class TestAdd:
    def test_add_returns_true_for_new(self):
        assert KnowledgeBase().add(Triple("/m/1", "p", StringValue("x")))

    def test_add_duplicate_is_noop(self, kb):
        triple = Triple("/m/1", "p/t/birth_date", DateValue("1962-07-03"))
        assert kb.add(triple) is False
        assert kb.values_for(triple.data_item) == [DateValue("1962-07-03")]


class TestLookup:
    def test_contains(self, kb):
        assert Triple("/m/1", "p/t/profession", StringValue("actor")) in kb
        assert Triple("/m/1", "p/t/profession", StringValue("pilot")) not in kb

    def test_has_item(self, kb):
        assert kb.has_item(DataItem("/m/1", "p/t/profession"))
        assert not kb.has_item(DataItem("/m/3", "p/t/profession"))

    def test_values_for(self, kb):
        values = set(kb.values_for(DataItem("/m/1", "p/t/profession")))
        assert values == {StringValue("actor"), StringValue("producer")}
