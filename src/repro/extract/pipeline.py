"""Extraction pipeline: run extractors, classify injected errors.

The pipeline drives every extractor over every page it covers and then
fills each record's debug channel by comparing the extracted triple with
the page's hidden assertion it came from:

1. fabricated mention (no assertion behind it) → triple identification;
2. extractor corrupted the span before linking → triple identification;
3. exact match with the assertion → no extraction error (the record may
   still carry the *source's* error);
4. mention taken from a structural slot of a different predicate
   (merged-row/merged-sentence flattening) → triple identification;
5. same structure, different predicate → predicate linkage;
6. otherwise (subject or object resolved to the wrong entity, or an
   unlinkable mention emitted as a raw string) → entity linkage.

Fusion never sees these tags; the test suite checks that stripping the
debug channel does not change fusion output.

Execution modes (``ExtractionPipeline.run(backend=...)``, one of
:data:`EXTRACTION_BACKENDS`; the README's "Execution backends" table has
every spelling).  All of them run the same kernels and emit the
**bit-identical** record stream; the mode's
:class:`~repro.mapreduce.executors.ExecutionPlan` only fixes **where**:

- in-process is one shard — coverage masks over the whole page list,
  then record synthesis (:func:`~repro.extract.synthesis.synthesize_batch`:
  one seed-array pass per extractor, per-predicate emit plans hoisted out
  of the record loop) and classification
  (:func:`~repro.extract.kernels.classify_batch`) one window of
  ``_WINDOW_PAGES`` pages at a time, emitted page-major,
  extractor-major;
- pooled, the corpus is sharded by stable page-URL hash
  (:func:`~repro.mapreduce.executors.shard_for_key`) and each shard runs
  that same body in a process-pool worker via the executors' map-only
  protocol (:class:`~repro.mapreduce.executors.ShardedMapJob`).
  Extraction is order-insensitive by design — every noisy draw derives
  from ``split_seed(seed, extractor, url)`` — and the parent re-emits
  each page's records at the page's corpus position.

What crosses the process boundary, per pooled chunk:

- **in**, the pages.  A chunk loaded from the scenario artifact (a
  :class:`~repro.artifacts.LazyPageList`) is handed to the executor as
  its :class:`~repro.artifacts.StoredPage` slices — url, site, category
  and the artifact's own fast-pickled body bytes — and the shard decodes
  its pages with :func:`~repro.artifacts.decode_page`, the function the
  list itself decodes with, one window at a time: a window's pages are
  dropped before the next is decoded, so a shard never holds more than
  ``_WINDOW_PAGES`` decoded pages.  The parent decodes no page, and the
  wire carries bytes instead of re-pickled ``WebPage`` dataclasses.  Any
  other chunk (a fresh build, a streamed chunk) crosses as its
  ``WebPage`` list.  The branch is on the chunk's type, never on the
  executor, so the in-process modes take the same items;
- **out**, each shard's records as columns — one string table, one
  table of distinct triples and int32 code columns (the
  :data:`~repro.extract.records.RECORD_WIRE_CODEC` wire codec) — plus
  the shard's per-page record counts, not pickled dataclass lists.  The
  parent decodes each shard once and its records share one object per
  distinct string and triple;
- **once per pool**, the 12-extractor fleet (entity linkers included),
  installed *pool-resident* via
  :meth:`~repro.mapreduce.executors.ParallelExecutor.install_state` on
  both fork and spawn start methods.  A fork pool starts from a frozen
  parent heap (see :mod:`repro.mapreduce.executors`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.artifacts import LazyPageList, StoredPage, decode_page
from repro.errors import ConfigError, ExtractionError
from repro.extract.annotation import AnnotationExtractor
from repro.extract.base import Extractor, ExtractorProfile
from repro.extract.dom import DomExtractor
from repro.extract.kernels import classify_batch
from repro.extract.linkage import EntityLinker
from repro.extract.records import RECORD_WIRE_CODEC, ExtractionRecord, _gc_paused
from repro.extract.synthesis import SynthesisCaches, synthesize_batch
from repro.extract.table import TableExtractor
from repro.extract.text import TextExtractor
from repro.kb.schema import Schema
from repro.mapreduce.codec import WireCodec
from repro.mapreduce.executors import (
    EXECUTION_MODES,
    PIPELINE_MODES,
    Executor,
    ShardedMapJob,
    worker_state,
)
from repro.world.labels import TemplateSpec
from repro.world.webgen import WebCorpus, WebPage

__all__ = ["build_extractor", "ExtractionPipeline", "EXTRACTION_BACKENDS"]

#: Execution backends for the extraction stage (see module docstring).
EXTRACTION_BACKENDS = PIPELINE_MODES

#: Registry key the extractor fleet is installed under (pool-resident).
EXTRACT_FLEET_KEY = "extract.fleet"


def build_extractor(
    profile: ExtractorProfile,
    schema: Schema,
    linker: EntityLinker,
    templates: dict[str, TemplateSpec],
    seed: int,
) -> Extractor:
    """Instantiate the right extractor class for ``profile``.

    The primary (first) content type selects the parser family; DOM
    extractors whose profile also lists TBL will walk tables as trees.
    """
    primary = profile.content_types[0]
    if primary == "TXT":
        return TextExtractor(profile, schema, linker, templates, seed)
    if primary == "DOM":
        # DOM1 is the paper's one patterned DOM extractor (25.7M patterns).
        patterned = profile.name.endswith("1")
        return DomExtractor(profile, schema, linker, seed, patterned=patterned)
    if primary == "TBL":
        return TableExtractor(profile, schema, linker, seed)
    if primary == "ANO":
        return AnnotationExtractor(profile, schema, linker, seed)
    raise ExtractionError(f"no extractor family for content type {primary!r}")


#: Pages a shard decodes and walks at a time (see :func:`_extract_shard`).
_WINDOW_PAGES = 256


def _extract_shard(
    items: list[WebPage] | list[StoredPage],
) -> list[list[ExtractionRecord]]:
    """One shard's extraction: one classified record list per page.

    Runs against the pool-resident fleet (``EXTRACT_FLEET_KEY``) — the
    shard task itself is just this function reference plus the page list,
    so the 12 extractors (linkers included) never ride in a shard
    payload.  Each extractor's coverage mask is computed once over the
    whole shard from the items' ``url`` / ``category``, which a
    :class:`~repro.artifacts.StoredPage` carries undecoded.  The items
    are then walked in windows of :data:`_WINDOW_PAGES`: a window's
    stored pages are decoded, synthesised with the sliced masks,
    classified and dropped before the next window is decoded, so a shard
    of stored pages holds at most one window decoded, whatever its size.  One
    :class:`~repro.extract.synthesis.SynthesisCaches` spans the shard, so
    ambiguity/parse memos warm across windows, pages *and* extractors;
    every draw is keyed per ``(extractor, url)`` and every memo is pure,
    so the records do not depend on the window.  The cyclic GC is paused
    for the whole shard, page decoding included (see
    :func:`~repro.extract.records._gc_paused`).
    """
    extractors: tuple[Extractor, ...] = worker_state(EXTRACT_FLEET_KEY)
    masks = [extractor.coverage_mask(items) for extractor in extractors]
    caches = SynthesisCaches()
    per_page: list[list[ExtractionRecord]] = []
    with _gc_paused():
        for start in range(0, len(items), _WINDOW_PAGES):
            window = slice(start, start + _WINDOW_PAGES)
            pages = [
                decode_page(item) if isinstance(item, StoredPage) else item
                for item in items[window]
            ]
            window_masks = [mask[window] for mask in masks]
            records = synthesize_batch(
                extractors, pages, masks=window_masks, caches=caches
            )
            classify_batch(list(zip(pages, records)))
            per_page.extend(records)
    return per_page


def _page_url(page: WebPage | StoredPage) -> str:
    return page.url


def _pages_to_wire(per_page: list[list[ExtractionRecord]]) -> tuple:
    """One shard's records as record columns plus per-page counts (worker side)."""
    records = [record for page_records in per_page for record in page_records]
    counts = [len(page_records) for page_records in per_page]
    return RECORD_WIRE_CODEC.encode(records), counts


def _pages_from_wire(wire: tuple) -> list[list[ExtractionRecord]]:
    """Inverse of :func:`_pages_to_wire`: one record list per page (parent side)."""
    columns, counts = wire
    records = RECORD_WIRE_CODEC.decode(columns)
    ends = itertools.accumulate(counts)
    return [records[end - count : end] for count, end in zip(counts, ends)]


#: The extraction job's codec: one shard's records cross as one set of columns.
_PAGES_WIRE_CODEC = WireCodec(encode=_pages_to_wire, decode=_pages_from_wire)


@dataclass
class ExtractionPipeline:
    """Runs a fleet of extractors over a corpus.

    The execution backend is chosen per :meth:`run` / :meth:`run_stream`
    call from :data:`EXTRACTION_BACKENDS` (default ``serial``); all of
    them emit the same bits, the name only picks in-process or pool.
    """

    extractors: list[Extractor]

    def run(
        self,
        corpus: WebCorpus,
        backend: str = "serial",
        n_workers: int | None = None,
        executor: Executor | None = None,
    ) -> list[ExtractionRecord]:
        """All classified extraction records, page-major then extractor-major.

        ``executor`` supplies a caller-managed executor in place of the
        one ``backend`` / ``n_workers`` would create (the caller also
        closes it).  The single-chunk case of :meth:`run_stream`.
        """
        return [
            record
            for records in self.run_stream([corpus.pages], backend, n_workers, executor)
            for record in records
        ]

    def run_stream(
        self,
        chunks,
        backend: str = "serial",
        n_workers: int | None = None,
        executor: Executor | None = None,
    ):
        """Extract page chunks one at a time: the out-of-core form of :meth:`run`.

        ``chunks`` is an iterable of page lists (e.g.
        :func:`repro.world.webgen.stream_corpus`); each chunk is sharded
        through one map job — same backends, same wire codec, same
        per-page record order — handed to the executor as received, and
        yields that chunk's flattened record list.  The fleet is
        installed pool-resident *once* for the whole stream (per-chunk
        install/withdraw would restart the pool on every chunk), and
        withdrawn when the stream ends; peak memory is one chunk of pages
        plus its records.  ``backend`` / ``n_workers`` are validated at
        the call, not at the first ``next()``.
        """
        if backend not in EXTRACTION_BACKENDS:
            raise ConfigError(
                f"extraction backend must be one of {EXTRACTION_BACKENDS}, "
                f"got {backend!r}"
            )
        owns_executor = executor is None
        if owns_executor:
            executor = EXECUTION_MODES[backend].executor(n_workers)
        return self._stream(chunks, executor, owns_executor)

    def _stream(self, chunks, executor: Executor, owns_executor: bool):
        # The fleet is heavyweight, invariant state: install it once per
        # pool instead of pickling it into every shard task.
        executor.install_state(EXTRACT_FLEET_KEY, tuple(self.extractors))
        job = ShardedMapJob(
            name="extract.pages",
            map_shard=_extract_shard,
            key_fn=_page_url,
            codec=_PAGES_WIRE_CODEC,
        )
        try:
            for pages in chunks:
                if isinstance(pages, LazyPageList):
                    pages = pages.stored_pages()
                per_page = executor.run_map(pages, job)
                yield [
                    record for page_records in per_page for record in page_records
                ]
        finally:
            if owns_executor:
                executor.close()
            else:
                # A shared executor outlives this stage: withdraw the
                # fleet so a later pool (re)start does not re-ship it.
                # Fusion installs nothing, so the running workers keep
                # serving it without a restart.
                executor.uninstall_state(EXTRACT_FLEET_KEY)

    def synthesis_fallbacks(self) -> tuple[str, ...]:
        """Always ``()``: every extractor runs the one synthesis path.

        A stub for ``benchmarks/kfbench``, which counts the names it
        returns; it goes with the ``[benchmark]`` PR of ROADMAP item 9(a).
        """
        return ()

    def by_name(self, name: str) -> Extractor:
        for extractor in self.extractors:
            if extractor.name == name:
                return extractor
        raise ExtractionError(f"no extractor named {name!r}")
