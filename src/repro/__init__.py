"""repro — a reproduction of "From Data Fusion to Knowledge Fusion" (VLDB'14).

The library computes, for every unique extracted ``(subject, predicate,
object)`` triple, a calibrated probability that the triple is true, given
provenance information (which extractor produced it, from which URL, with
which pattern).  It ships the full stack the paper depends on:

- :mod:`repro.kb` — a Freebase-like knowledge-base substrate with LCWA
  gold-standard labelling;
- :mod:`repro.world` — a synthetic web: ground-truth world plus rendered
  text / DOM / table / annotation content with realistic error structure;
- :mod:`repro.extract` — 12 concrete extractors with shared entity-linkage
  components and per-extractor confidence models;
- :mod:`repro.mapreduce` — the local MapReduce engine behind Figure 8;
- :mod:`repro.fusion` — VOTE, ACCU, POPACCU, the paper's refinements
  (granularity, coverage/accuracy filtering, gold initialisation), and the
  POPACCU+ presets, plus §5 future-direction extensions;
- :mod:`repro.eval` — calibration / PR / Kappa metrics and automated error
  analysis;
- :mod:`repro.datasets` — scenario builders calibrated to the paper's
  Tables 1-2;
- :mod:`repro.experiments` — one module per table, figure and §5
  direction, each with its named checks.

Quickstart
----------
>>> from repro.datasets import build_scenario, tiny_config
>>> from repro.fusion import popaccu_plus_unsup
>>> scenario = build_scenario(tiny_config(seed=7))
>>> result = popaccu_plus_unsup().fuse(scenario.fusion_input())
>>> 0.0 <= min(result.probabilities.values()) <= 1.0
True
"""

from repro.kb import (
    DataItem,
    DateValue,
    Entity,
    EntityRef,
    KnowledgeBase,
    LCWALabeler,
    NumberValue,
    Predicate,
    Schema,
    StringValue,
    Triple,
    ValueHierarchy,
)

__version__ = "1.0.0"

__all__ = [
    "DataItem",
    "DateValue",
    "Entity",
    "EntityRef",
    "KnowledgeBase",
    "LCWALabeler",
    "NumberValue",
    "Predicate",
    "Schema",
    "StringValue",
    "Triple",
    "ValueHierarchy",
    "__version__",
]
