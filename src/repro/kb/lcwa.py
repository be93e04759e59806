"""Local closed-world assumption (LCWA) labelling.

§3.2.1: a triple ``(s, p, o)`` found in Freebase is labelled **true**; a
triple absent from Freebase whose data item ``(s, p)`` *is* present is
labelled **false** ("once Freebase has knowledge about a particular data
item, it has complete knowledge"); when the data item itself is unknown the
labeller **abstains** and the triple is excluded from the gold standard.

The labeller is deliberately faithful to this rule, including its known
failure modes (extra true values for non-functional predicates and
more-specific/more-general values are labelled false) — those failure modes
are themselves measured by the paper's error analysis (Figure 17) and
reproduced in :mod:`repro.eval.analysis`.

A triple is labelled by its canonical text, the identity it has from the
extractor to the fusion output: both membership tests are set probes on
the snapshot's triple texts and data-item texts.  Two texts are equal
exactly when their triples are (``tests/kb/test_text_identity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.kb.store import KnowledgeBase
from repro.kb.triples import item_text

__all__ = ["LCWALabeler"]


@dataclass(frozen=True)
class LCWALabeler:
    """Labels triples against a reference KB under LCWA."""

    reference: KnowledgeBase

    def label_texts(self, texts: Iterable[str]) -> dict[str, bool]:
        """Labels for every non-abstained canonical triple text, in the
        order given: ``{text: is_true}``.

        Abstained (unknown) triples are simply absent from the result,
        mirroring the paper's "exclude it from the gold standard".
        """
        known, items = self.reference.canonical_texts()
        labels: dict[str, bool] = {}
        for text in texts:
            if text in known:
                labels[text] = True
            elif item_text(text) in items:
                labels[text] = False
        return labels
