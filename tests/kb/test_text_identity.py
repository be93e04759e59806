"""A triple's canonical text is its identity: the precondition, checked.

The gold standard and the claim layout key a triple by its canonical
text, and read its data item as the text before the second ``|``
(:func:`repro.kb.triples.item_text`).  That equals ``Triple`` equality,
and ``Triple.data_item``, exactly when every text parses back to itself
and subjects and predicates hold no ``|``.  Checked over every triple
the ``tiny`` and ``small`` scenarios emit and every triple of their
Freebase snapshots.
"""

import pytest

from repro.datasets import build_scenario, small_config, tiny_config
from repro.kb.triples import Triple, item_text

SCALES = {"tiny": tiny_config, "small": small_config}


def _assert_identity(text: str, triple: Triple) -> None:
    assert triple.canonical() == text
    assert Triple.from_canonical(text) == triple
    assert Triple.from_canonical(text).canonical() == text
    assert "|" not in triple.subject and "|" not in triple.predicate
    assert item_text(text) == triple.data_item.canonical()


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_emitted_and_snapshot_texts_are_identities(scale):
    scenario = build_scenario(SCALES[scale]())
    emitted = scenario.records.columns.triples
    assert len(set(emitted)) == len(emitted) > 0
    for text in emitted:
        _assert_identity(text, Triple.from_canonical(text))
    snapshot = scenario.freebase._triples
    assert snapshot
    for triple in snapshot:
        _assert_identity(triple.canonical(), triple)
    # Text sets are as large as the triple sets they stand for.
    assert len(scenario.freebase.canonical_texts()[0]) == len(snapshot)
