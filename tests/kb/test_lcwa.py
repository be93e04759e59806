"""Unit tests for LCWA gold-standard labelling."""

import pytest

from repro.kb.lcwa import Label, LCWALabeler
from repro.kb.store import KnowledgeBase
from repro.kb.triples import Triple
from repro.kb.values import DateValue, StringValue


@pytest.fixture
def labeler():
    kb = KnowledgeBase()
    kb.add(Triple("/m/1", "birth_date", DateValue("1962-07-03")))
    kb.add(Triple("/m/1", "profession", StringValue("actor")))
    return LCWALabeler(kb)


class TestLabel:
    def test_known_triple_is_true(self, labeler):
        assert (
            labeler.label(Triple("/m/1", "birth_date", DateValue("1962-07-03")))
            is Label.TRUE
        )

    def test_known_item_wrong_value_is_false(self, labeler):
        assert (
            labeler.label(Triple("/m/1", "birth_date", DateValue("1999-01-01")))
            is Label.FALSE
        )

    def test_unknown_item_abstains(self, labeler):
        assert (
            labeler.label(Triple("/m/2", "birth_date", DateValue("1999-01-01")))
            is Label.UNKNOWN
        )
        assert (
            labeler.label(Triple("/m/1", "spouse", StringValue("x")))
            is Label.UNKNOWN
        )

    def test_extra_true_value_labelled_false(self, labeler):
        """The documented LCWA failure mode: a second true profession is
        labelled false because Freebase 'locally closes' the item."""
        assert (
            labeler.label(Triple("/m/1", "profession", StringValue("producer")))
            is Label.FALSE
        )


class TestLabelMany:
    def test_label_many_excludes_unknown(self, labeler):
        triples = [
            Triple("/m/1", "birth_date", DateValue("1962-07-03")),
            Triple("/m/1", "birth_date", DateValue("1999-01-01")),
            Triple("/m/9", "birth_date", DateValue("1999-01-01")),
        ]
        labels = labeler.label_many(triples)
        assert len(labels) == 2
        assert labels[triples[0]] is True
        assert labels[triples[1]] is False
