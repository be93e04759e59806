"""Extraction pipeline: run extractors, classify injected errors.

The pipeline drives every extractor over every page it covers and then
fills each record's debug columns by comparing the extracted triple with
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
:data:`~repro.mapreduce.executors.PIPELINE_MODES`) run the same kernels and emit the
**bit-identical** record stream; the mode only fixes **where**.  Every
mode runs one map job (:class:`~repro.mapreduce.executors.ShardedMapJob`)
whose work item is a *window* of ``_WINDOW_PAGES`` consecutive pages and
whose output is that window's records as one record table, written row
by row (:class:`~repro.extract.records.TableBuilder`): in-process all windows
are one shard; pooled, a chunk's windows spread evenly over the
executor's contiguous shards (every noisy draw derives from
``split_seed(seed, extractor, url)``, so the sharding cannot shift one)
and the executor concatenates the tables in window order.  The window
tables are all extraction hands on: one private generator yields each
chunk's list of them, which :meth:`ExtractionPipeline.run` and
:meth:`~ExtractionPipeline.run_stream` fold into record stores
(:class:`~repro.extract.records.RecordTables`) and the end-to-end
pipeline folds into the run's one store, so no record object exists
unless a caller reads one.

What crosses the process boundary, per pooled chunk:

- **in**, the windows.  A chunk loaded from the scenario artifact (a
  :class:`~repro.artifacts.LazyPageList`) crosses as its
  :class:`~repro.artifacts.StoredPage` slices (url, site, category and
  the artifact's own body bytes), which the shard decodes a window at a
  time with :func:`~repro.artifacts.decode_page`, so the parent decodes
  no page.  Any other chunk crosses as its ``WebPage`` list.  The branch
  is on the chunk's type, never on the executor;
- **out**, one record table per window;
- **once per pool**, the 12-extractor fleet (entity linkers included),
  installed *pool-resident* via
  :meth:`~repro.mapreduce.executors.ParallelExecutor.install_state`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from repro.artifacts import LazyPageList, StoredPage, decode_page
from repro.errors import ConfigError, ExtractionError
from repro.extract.annotation import AnnotationExtractor
from repro.extract.base import Extractor, ExtractorProfile
from repro.extract.dom import DomExtractor
from repro.extract.kernels import classify_table
from repro.extract.linkage import EntityLinker
from repro.extract.records import RecordTables, TableBuilder, _gc_paused
from repro.extract.synthesis import SynthesisCaches, synthesize_window
from repro.extract.table import TableExtractor
from repro.extract.text import TextExtractor
from repro.kb.schema import Schema
from repro.mapreduce.executors import (
    EXECUTION_MODES,
    PIPELINE_MODES,
    Executor,
    ShardedMapJob,
    worker_state,
)
from repro.world.labels import TemplateSpec
from repro.world.webgen import WebCorpus, WebPage

__all__ = ["build_extractor", "ExtractionPipeline"]

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


#: Pages per work item of the extraction job (see :func:`_extract_shard`).
_WINDOW_PAGES = 256


def _extract_shard(windows: list[list[WebPage] | list[StoredPage]]) -> list[tuple]:
    """One shard's extraction: one record table per page window.

    Runs against the pool-resident fleet (``EXTRACT_FLEET_KEY``), so the
    12 extractors never ride in a shard payload.  Per window: coverage
    masks from the items' ``url`` / ``category`` (a
    :class:`~repro.artifacts.StoredPage` carries both undecoded), then
    decode, synthesise into the window's
    :class:`~repro.extract.records.TableBuilder`, classify its columns
    and keep the finished table; pages are dropped before the next
    window.  One :class:`~repro.extract.synthesis.SynthesisCaches` spans
    the shard; every draw is keyed per ``(extractor, url)`` and every
    memo is pure, so the table does not depend on the window.  The body
    leaves the cyclic GC alone: its caller's extraction stage pauses it
    (:func:`~repro.extract.records._gc_paused`), and a worker never runs it.
    """
    extractors: tuple[Extractor, ...] = worker_state(EXTRACT_FLEET_KEY)
    caches = SynthesisCaches()
    tables = []
    for items in windows:
        masks = [extractor.coverage_mask(items) for extractor in extractors]
        pages = [
            decode_page(item) if isinstance(item, StoredPage) else item
            for item in items
        ]
        builder = TableBuilder()
        page_ends = synthesize_window(extractors, pages, masks, caches, builder)
        tables.append(
            classify_table(builder.finish(), builder.triples, pages, page_ends)
        )
    return tables


@dataclass
class ExtractionPipeline:
    """Runs a fleet of extractors over a corpus.

    The execution backend is chosen per :meth:`run` / :meth:`run_stream`
    call from :data:`~repro.mapreduce.executors.PIPELINE_MODES` (default ``serial``); all of
    them emit the same bits, the name only picks in-process or pool.
    """

    extractors: list[Extractor]

    def run(
        self,
        corpus: WebCorpus,
        backend: str = "serial",
        n_workers: int | None = None,
        executor: Executor | None = None,
    ) -> RecordTables:
        """All classified extraction records, page-major then extractor-major.

        ``executor`` supplies a caller-managed executor in place of the
        one ``backend`` / ``n_workers`` would create (the caller also
        closes it).  The single-chunk case of :meth:`run_stream`; the GC
        is paused for the fold (:func:`~repro.extract.records._gc_paused`).
        """
        chunks = self._window_tables([corpus.pages], backend, n_workers, executor)
        with _gc_paused():
            return RecordTables(chain.from_iterable(chunks))

    def run_stream(
        self,
        chunks,
        backend: str = "serial",
        n_workers: int | None = None,
        executor: Executor | None = None,
    ):
        """Extract page chunks one at a time: the out-of-core form of
        :meth:`run`, yielding each chunk's
        :class:`~repro.extract.records.RecordTables` (see
        :meth:`_window_tables`)."""
        return map(RecordTables, self._window_tables(chunks, backend, n_workers, executor))

    def _window_tables(
        self,
        chunks,
        backend: str = "serial",
        n_workers: int | None = None,
        executor: Executor | None = None,
    ):
        """Each chunk's window tables, one list per chunk.

        ``chunks`` is an iterable of page lists (e.g.
        :func:`repro.world.webgen.stream_corpus`); each chunk is cut into
        windows and run through one map job — same backends, same record
        tables, same record order.  The fleet is installed pool-resident
        *once* for the whole stream (per-chunk install/withdraw would
        restart the pool on every chunk), and withdrawn when the stream
        ends; peak memory is one chunk of pages plus its record tables.
        ``backend`` / ``n_workers`` are validated at the call, not at the
        first ``next()``.
        """
        if backend not in PIPELINE_MODES:
            raise ConfigError(
                f"extraction backend must be one of {PIPELINE_MODES}, "
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
        job = ShardedMapJob(name="extract.pages", map_shard=_extract_shard)
        try:
            for pages in chunks:
                if isinstance(pages, LazyPageList):
                    pages = pages.stored_pages()
                windows = [
                    pages[start : start + _WINDOW_PAGES]
                    for start in range(0, len(pages), _WINDOW_PAGES)
                ]
                yield executor.run_map(windows, job)
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
