"""Future-direction fusers (§5 of the paper).

The paper closes with eight research directions; four of them are concrete
modelling changes this package implements, each as a drop-in
:class:`~repro.fusion.base.Fuser`:

- :class:`SplitQualityFuser` — direction 1: estimate *extractor* quality
  and *source* quality as separate factors instead of burying both in the
  provenance cross-product;
- :class:`MultiTruthFuser` — direction 3: drop the single-truth assumption;
  a simplified latent-truth model (after Zhao et al., the paper's [37])
  with per-provenance sensitivity/specificity and a learned per-predicate
  expected truth count;
- :class:`HierarchicalFuser` — direction 4: let a claim of a specific
  value partially support its ancestors in the value hierarchy (and
  vice versa, weakly);
- :class:`ConfidenceWeightedFuser` — direction 5: weight claims by the
  extractor's reported confidence, rank-normalised per extractor so that
  miscalibrated extractors (TBL1, ANO) cannot poison the vote.

Each is an initial state and one array ``step`` over the claim columns,
driven by the one round loop of :mod:`repro.fusion.extensions.rounds`;
the dict implementations they replaced are the 1e-9 comparand under
``tests/oracle/extensions.py``.
"""

from repro.fusion.extensions.split_quality import SplitQualityFuser
from repro.fusion.extensions.functionality import MultiTruthFuser
from repro.fusion.extensions.hierarchy import HierarchicalFuser
from repro.fusion.extensions.confidence import ConfidenceWeightedFuser

__all__ = [
    "SplitQualityFuser",
    "MultiTruthFuser",
    "HierarchicalFuser",
    "ConfidenceWeightedFuser",
]
