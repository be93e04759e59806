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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.kb.store import KnowledgeBase
from repro.kb.triples import Triple

__all__ = ["Label", "LCWALabeler"]


class Label(enum.Enum):
    """Outcome of LCWA labelling for one triple."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class LCWALabeler:
    """Labels triples against a reference KB under LCWA."""

    reference: KnowledgeBase

    def label(self, triple: Triple) -> Label:
        if triple in self.reference:
            return Label.TRUE
        if self.reference.has_item(triple.data_item):
            return Label.FALSE
        return Label.UNKNOWN

    def label_many(self, triples) -> dict[Triple, bool]:
        """Labels for every non-abstained triple: ``{triple: is_true}``.

        Abstained (UNKNOWN) triples are simply absent from the result,
        mirroring the paper's "exclude it from the gold standard".
        """
        labels: dict[Triple, bool] = {}
        for triple in triples:
            label = self.label(triple)
            if label is Label.TRUE:
                labels[triple] = True
            elif label is Label.FALSE:
                labels[triple] = False
        return labels
