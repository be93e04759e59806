"""The 12 knowledge extractors.

Mirrors §3.1.3 of the paper: 4 text extractors (TXT1-4), 5 DOM extractors
(DOM1-5), 2 web-table extractors (TBL1-2) and 1 annotation extractor (ANO),
each a concrete parser over the rendered content of
:mod:`repro.world.content`, with:

- **shared entity-linkage components** (two linkers, EL-A and EL-B; most
  extractors use EL-A — the paper: "a lot of extractors employ the same
  entity linkage components, they may make common linkage mistakes");
- **pattern libraries** sampled from the shared template registry (the
  analogue of patterns learned via distant supervision), some mapping a
  phrasing to the wrong predicate;
- **per-extractor confidence models** with very different calibration
  (Figure 21).

The pipeline emits record tables (:class:`~repro.extract.records.RecordTables`)
and tags each row's debug columns with the injected error kind (triple
identification / entity linkage / predicate linkage) by comparing against
the page's hidden assertions — fusion never sees these tags.
"""

from repro.extract.records import ExtractionRecord, ExtractionDebug, ErrorKind
from repro.extract.linkage import EntityLinker
from repro.extract.confidence import ConfidenceModel, make_confidence_model
from repro.extract.base import Extractor, ExtractorProfile
from repro.extract.text import TextExtractor
from repro.extract.dom import DomExtractor
from repro.extract.table import TableExtractor
from repro.extract.annotation import AnnotationExtractor
from repro.extract.pipeline import ExtractionPipeline, build_extractor

__all__ = [
    "ExtractionRecord",
    "ExtractionDebug",
    "ErrorKind",
    "EntityLinker",
    "ConfidenceModel",
    "make_confidence_model",
    "Extractor",
    "ExtractorProfile",
    "TextExtractor",
    "DomExtractor",
    "TableExtractor",
    "AnnotationExtractor",
    "ExtractionPipeline",
    "build_extractor",
]
