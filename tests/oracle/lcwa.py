"""LCWA labelling as a per-``Triple`` decision over the snapshot's objects.

``LCWALabeler.label`` / ``label_many`` labelled ``Triple`` objects until
the gold standard became keyed by canonical text.  The per-triple rule
moved here verbatim (from ``src/repro/kb/lcwa.py`` at dfd3a91) and is the
comparand of ``tests/kb/test_lcwa.py``: text labelling must equal it
triple for triple.
"""

from __future__ import annotations

import enum

from repro.kb.store import KnowledgeBase
from repro.kb.triples import Triple

__all__ = ["Label", "label", "label_many"]


class Label(enum.Enum):
    """Outcome of LCWA labelling for one triple."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


def label(reference: KnowledgeBase, triple: Triple) -> Label:
    if triple in reference:
        return Label.TRUE
    if reference.has_item(triple.data_item):
        return Label.FALSE
    return Label.UNKNOWN


def label_many(reference: KnowledgeBase, triples) -> dict[Triple, bool]:
    """Labels for every non-abstained triple: ``{triple: is_true}``."""
    labels: dict[Triple, bool] = {}
    for triple in triples:
        outcome = label(reference, triple)
        if outcome is Label.TRUE:
            labels[triple] = True
        elif outcome is Label.FALSE:
            labels[triple] = False
    return labels
