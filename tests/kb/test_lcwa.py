"""Unit and property tests for LCWA gold-standard labelling.

The rule is stated per ``Triple`` by the oracle (``tests/oracle/lcwa.py``);
:meth:`LCWALabeler.label_texts` labels canonical texts and must agree
with it triple for triple.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb.lcwa import LCWALabeler
from repro.kb.store import KnowledgeBase
from repro.kb.triples import Triple
from repro.kb.values import DateValue, EntityRef, NumberValue, StringValue
from tests.oracle.lcwa import Label, label, label_many


@pytest.fixture
def kb():
    kb = KnowledgeBase()
    kb.add(Triple("/m/1", "birth_date", DateValue("1962-07-03")))
    kb.add(Triple("/m/1", "profession", StringValue("actor")))
    return kb


class TestLabel:
    def test_known_triple_is_true(self, kb):
        assert label(kb, Triple("/m/1", "birth_date", DateValue("1962-07-03"))) is Label.TRUE

    def test_known_item_wrong_value_is_false(self, kb):
        assert label(kb, Triple("/m/1", "birth_date", DateValue("1999-01-01"))) is Label.FALSE

    def test_unknown_item_abstains(self, kb):
        assert label(kb, Triple("/m/2", "birth_date", DateValue("1999-01-01"))) is Label.UNKNOWN
        assert label(kb, Triple("/m/1", "spouse", StringValue("x"))) is Label.UNKNOWN

    def test_extra_true_value_labelled_false(self, kb):
        """The documented LCWA failure mode: a second true profession is
        labelled false because Freebase 'locally closes' the item."""
        assert label(kb, Triple("/m/1", "profession", StringValue("producer"))) is Label.FALSE


class TestLabelTexts:
    def test_label_texts_excludes_unknown(self, kb):
        triples = [
            Triple("/m/1", "birth_date", DateValue("1962-07-03")),
            Triple("/m/1", "birth_date", DateValue("1999-01-01")),
            Triple("/m/9", "birth_date", DateValue("1999-01-01")),
        ]
        texts = [triple.canonical() for triple in triples]
        labels = LCWALabeler(kb).label_texts(texts)
        assert labels == {texts[0]: True, texts[1]: False}

    def test_an_object_holding_a_bar_keeps_its_data_item(self, kb):
        # "/m/1|profession|string:a|b": the item ends at the second "|".
        texts = [
            Triple("/m/1", "profession", StringValue("a|b")).canonical(),
            Triple("/m/1", "profession", StringValue("|")).canonical(),
        ]
        assert LCWALabeler(kb).label_texts(texts) == dict.fromkeys(texts, False)


_objects = st.one_of(
    st.builds(StringValue, st.text(alphabet="ab|:", min_size=0, max_size=4)),
    st.builds(EntityRef, st.sampled_from(["/m/1", "/m/2", "/m/a|b"])),
    st.builds(NumberValue, st.integers(min_value=-3, max_value=3)),
    st.builds(DateValue, st.sampled_from(["1962-07-03", "1999-01-01"])),
)
_triples = st.builds(
    Triple,
    st.sampled_from(["/m/1", "/m/2", "/m/3"]),
    st.sampled_from(["p/a", "p/b"]),
    _objects,
)


class TestTextLabelsEqualTheOracle:
    @given(st.lists(_triples, max_size=12), st.lists(_triples, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_label_texts_equals_per_triple_label(self, stored, probed):
        kb = KnowledgeBase()
        for triple in stored:
            kb.add(triple)
        unique = sorted(set(probed), key=Triple.canonical)
        expected = label_many(kb, unique)
        labels = LCWALabeler(kb).label_texts([triple.canonical() for triple in unique])
        assert list(labels.items()) == [(t.canonical(), v) for t, v in expected.items()]
