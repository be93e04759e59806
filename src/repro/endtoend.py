"""The end-to-end pipeline: extraction → fusion on one shared executor.

The paper's system is one pipeline — extract triples from a web corpus,
then fuse them — and both stages here run on the same executor protocol
(:mod:`repro.mapreduce.executors`).  :func:`run_end_to_end` wires that up
explicitly: a single :class:`~repro.mapreduce.executors.ParallelExecutor`
carries the extraction shards *and* every fusion round, so worker
processes are paid for once per run, not once per stage.  Pool-resident
state makes the hand-off cheap: extraction installs the 12-extractor
fleet, fusion installs the columnar claim index; the pool restarts
exactly once at the stage boundary and never re-ships state per shard.
In-process, extraction runs on a
:class:`~repro.mapreduce.executors.SerialExecutor` and fusion is plain
calls over the claim columns.  Every fusion mode reads only those
columns, so the streaming pipeline (:func:`run_streaming_pipeline`)
accepts the same backends as the in-memory one.

What a ``backend`` means for each stage, and the numeric contract it
honours against the serial path (``bitwise`` — the record stream, gold
labels, fused probabilities, accuracies and unpredicted set are equal
exactly — or the 1e-9 ``tolerance``), is the README's "Execution backends"
table; ``result.diagnostics["parity"]`` records which contract applied.

``repro-kf pipeline`` is the CLI face of this function; the headline
metrics it reports (calibration deviation, AUC-PR, coverage) are the
quantities the golden regression test freezes for the ``small`` scenario.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.artifacts import setup_worldgen
from repro.datasets.scenario import (
    Scenario,
    ScenarioConfig,
    build_extraction_pipeline,
    label_gold,
    label_gold_triples,
)
from repro.errors import ConfigError
from repro.experiments.common import metrics_for
from repro.fusion.base import FusionConfig, FusionResult, Fuser
from repro.fusion.matrix import MappedColumnarClaims, persist_columns
from repro.fusion.observations import ClaimAccumulator, FusionInput
from repro.fusion.presets import accu, popaccu, popaccu_plus, popaccu_plus_unsup, vote
from repro.kb.triples import Triple
from repro.mapreduce.executors import (
    EXECUTION_MODES,
    PIPELINE_MODES,
    ExecutionPlan,
    Executor,
    fusion_mode_name,
)
from repro.world.facts import build_freebase_snapshot
from repro.world.webgen import stream_corpus
from repro.world.worldgen import generate_world

__all__ = [
    "PIPELINE_BACKENDS",
    "PIPELINE_METHODS",
    "STREAMING_PIPELINE_BACKENDS",
    "EndToEndResult",
    "StreamingResult",
    "make_fuser",
    "peak_rss_mb",
    "run_end_to_end",
    "run_streaming_pipeline",
]

#: Fusion method presets the pipeline (and the CLI) can run.
PIPELINE_METHODS = ("vote", "accu", "popaccu", "popaccu+unsup", "popaccu+")

#: Execution backends the pipeline can run both stages under.
PIPELINE_BACKENDS = PIPELINE_MODES

#: Backends the *streaming* pipeline supports: every fusion mode runs
#: over claim columns, so all of them (docs/SCALING.md has the memory
#: model, and what ``serial`` costs at ``web``).
STREAMING_PIPELINE_BACKENDS = PIPELINE_BACKENDS


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; the web-tier
    bench envelope records this number and asserts it against the
    documented ceiling.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024 * 1024)
    return peak / 1024


def make_fuser(
    method: str,
    config: FusionConfig,
    gold_labels: dict[Triple, bool] | None = None,
) -> Fuser:
    """Resolve a method name from :data:`PIPELINE_METHODS` to a fuser."""
    if method == "vote":
        return vote(config)
    if method == "accu":
        return accu(config)
    if method == "popaccu":
        return popaccu(config)
    if method == "popaccu+unsup":
        return popaccu_plus_unsup(config)
    if method == "popaccu+":
        return popaccu_plus(gold_labels, config)
    raise ConfigError(
        f"unknown fusion method {method!r}; expected one of {PIPELINE_METHODS}"
    )


def _validate_request(
    backend: str, backends: tuple[str, ...], method: str, label: str
) -> None:
    """Reject a bad backend/method up front: extraction at the larger
    scales is minutes of work a typo should not get to waste."""
    if backend not in backends:
        raise ConfigError(
            f"{label} backend must be one of {backends}, got {backend!r}"
        )
    if method not in PIPELINE_METHODS:
        raise ConfigError(
            f"unknown fusion method {method!r}; expected one of {PIPELINE_METHODS}"
        )


def _stage_diagnostics(
    diagnostics: dict, plan: ExecutionPlan, pipeline, executor: Executor
) -> None:
    """Add the extraction-stage and shared-executor keys to ``diagnostics``."""
    diagnostics["extraction_synthesis"] = plan.kernel
    fallbacks = pipeline.synthesis_fallbacks()
    if fallbacks:
        diagnostics["synthesis_fallbacks"] = ",".join(fallbacks)
    if plan.pooled:
        diagnostics.update(executor.diagnostics())


@dataclass
class EndToEndResult:
    """Everything one pipeline run produced.

    ``timings`` holds per-stage wall-clock seconds under the keys
    ``setup`` (world + corpus + extractor construction), ``extraction``,
    ``labeling`` (LCWA gold), ``fusion``, and ``total``.  ``metrics``
    holds the headline numbers against the gold standard: calibration
    ``deviation`` / ``weighted_deviation``, ``auc_pr``, ``coverage``
    (fraction of unique triples scored), and ``gold_accuracy`` (fraction
    of gold-labelled predictions on the right side of p = 0.5).
    """

    scenario: Scenario
    fusion: FusionResult
    backend: str
    n_workers: int | None
    timings: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def headline_metrics(
    result: FusionResult, gold: dict[Triple, bool]
) -> dict[str, float]:
    """The frozen-by-the-golden-test summary of one fusion run.

    Delegates the calibration/PR numbers to
    :func:`repro.experiments.common.metrics_for` — the same derivation
    the figure experiments use — and adds the threshold accuracy.
    """
    metrics = metrics_for(result.probabilities, gold, coverage=result.coverage())
    labelled = [
        (probability, gold[triple])
        for triple, probability in result.probabilities.items()
        if triple in gold
    ]
    correct = sum(1 for probability, label in labelled if (probability >= 0.5) == label)
    return {
        "deviation": metrics.dev,
        "weighted_deviation": metrics.wdev,
        "auc_pr": metrics.auc_pr,
        "coverage": metrics.coverage,
        "gold_accuracy": correct / len(labelled) if labelled else 0.0,
        "n_labelled": len(labelled),
    }


def run_end_to_end(
    config: ScenarioConfig,
    method: str = "popaccu+",
    fusion_config: FusionConfig | None = None,
    backend: str = "serial",
    n_workers: int | None = None,
    executor: Executor | None = None,
    cache_dir: str | Path | None = None,
) -> EndToEndResult:
    """Run extraction → gold labeling → fusion on one shared executor.

    ``backend`` (one of :data:`PIPELINE_BACKENDS`) selects the execution
    mode for *both* stages.  Extraction takes it as is and is bit-identical
    under every one.  Fusion follows it onto the pool, but an in-process
    pipeline fuses ``serial`` (the scalar kernel) — which keeps ``batched``
    bit-identical to ``serial`` end to end.  A caller-managed ``executor``
    overrides the executor choice (and is not closed here).  The fusion
    configuration inherits the scenario seed and that backend unless
    ``fusion_config`` pins them explicitly.  ``cache_dir`` enables the
    on-disk scenario artifact cache
    (:func:`repro.artifacts.setup_worldgen`) for the setup stage —
    bit-identical to a fresh build; ``diagnostics["scenario_cache"]``
    reports ``hit`` / ``miss`` / ``off``.
    """
    _validate_request(backend, PIPELINE_BACKENDS, method, "pipeline")
    plan = EXECUTION_MODES[backend]
    if fusion_config is None:
        fusion_config = FusionConfig(
            seed=config.seed,
            backend=backend if plan.pooled else "serial",
            n_workers=n_workers,
        )

    owns_executor = executor is None
    if owns_executor:
        executor = plan.executor(n_workers)

    timings: dict[str, float] = {}
    start_total = time.perf_counter()
    try:
        start = time.perf_counter()
        world, freebase, corpus, cache_status = setup_worldgen(
            config.seed, config.world, config.web, cache_dir
        )
        pipeline = build_extraction_pipeline(config, world)
        timings["setup"] = time.perf_counter() - start

        start = time.perf_counter()
        records = pipeline.run(corpus, backend=backend, executor=executor)
        # pipeline.run withdraws the fleet from the shared executor at the
        # stage boundary, so the pool restart (when fusion installs the
        # claim columns) does not re-ship it to workers that never use it.
        timings["extraction"] = time.perf_counter() - start

        start = time.perf_counter()
        gold = label_gold(freebase, records)
        timings["labeling"] = time.perf_counter() - start

        scenario = Scenario(
            config=config,
            world=world,
            freebase=freebase,
            corpus=corpus,
            pipeline=pipeline,
            records=records,
            gold=gold,
        )

        start = time.perf_counter()
        fuser = make_fuser(method, fusion_config, gold)
        fusion_result = fuser.fuse(scenario.fusion_input(), executor=executor)
        timings["fusion"] = time.perf_counter() - start
    finally:
        if owns_executor:
            executor.close()
    timings["total"] = time.perf_counter() - start_total

    diagnostics = dict(fusion_result.diagnostics)
    diagnostics["n_records"] = len(records)
    diagnostics["n_pages"] = len(corpus.pages)
    diagnostics["scenario_cache"] = cache_status
    _stage_diagnostics(diagnostics, plan, pipeline, executor)

    return EndToEndResult(
        scenario=scenario,
        fusion=fusion_result,
        backend=backend,
        n_workers=n_workers,
        timings=timings,
        metrics=headline_metrics(fusion_result, gold),
        diagnostics=diagnostics,
    )


@dataclass
class StreamingResult:
    """Everything one out-of-core pipeline run produced.

    The streaming twin of :class:`EndToEndResult` — there is no
    ``scenario`` because nothing corpus-sized survives the run: pages
    and records exist one chunk at a time and the claim matrix lives in
    (optionally memory-mapped) columns.  ``timings`` adds a ``matrix``
    stage (claim-column assembly + persistence) to the usual keys.
    """

    fusion: FusionResult
    backend: str
    n_workers: int | None
    n_pages: int
    n_records: int
    timings: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def run_streaming_pipeline(
    config: ScenarioConfig,
    method: str = "popaccu+",
    fusion_config: FusionConfig | None = None,
    backend: str = "hybrid",
    n_workers: int | None = None,
    chunk_pages: int = 2048,
    copy_window: int | None = 1024,
    cache_dir: str | Path | None = None,
) -> StreamingResult:
    """Run the pipeline out of core: chunked worldgen + extraction,
    accumulated claim columns, memory-mapped fusion.

    The ``web`` scale tier's entry point.  Pages are generated and
    extracted ``chunk_pages`` at a time
    (:func:`repro.world.webgen.stream_corpus` →
    :meth:`~repro.extract.pipeline.ExtractionPipeline.run_stream`) and
    folded straight into a
    :class:`~repro.fusion.observations.ClaimAccumulator`; the corpus and the
    record list are never materialised.  With ``cache_dir`` set the
    claim columns are published to the content-addressed column store
    and fusion runs over read-only memory-mapped views
    (``diagnostics["column_store"] = "mapped"``); workers receive a
    ~300-byte :class:`~repro.artifacts.ColumnHandle` and re-map the
    files zero-copy.  Without it fusion runs over the in-memory columns
    (``"memory"``) — bitwise-identical either way, by test.

    ``backend`` must be one of :data:`STREAMING_PIPELINE_BACKENDS`, and
    fusion runs the same mode under its fusion-stage spelling (unlike
    :func:`run_end_to_end`, ``batched`` therefore fuses ``vectorized``).
    ``diagnostics["peak_rss_mb"]`` records the process peak RSS after the
    run.
    """
    _validate_request(
        backend, STREAMING_PIPELINE_BACKENDS, method, "streaming pipeline"
    )
    # Same reason: stream_corpus would only say so after the setup stage.
    if chunk_pages < 1:
        raise ConfigError(f"chunk_pages must be >= 1, got {chunk_pages}")
    if copy_window is not None and copy_window < 0:
        raise ConfigError(f"copy_window must be >= 0 or None, got {copy_window}")
    plan = EXECUTION_MODES[backend]
    if fusion_config is None:
        fusion_config = FusionConfig(
            seed=config.seed, backend=fusion_mode_name(plan), n_workers=n_workers
        )
    # The fuser preset decides the effective provenance granularity
    # (POPACCU+ overrides it); the accumulator must fold records at that
    # granularity, so resolve it from a gold-less probe fuser up front.
    granularity = make_fuser(method, fusion_config, {}).config.granularity

    executor = plan.executor(n_workers)
    timings: dict[str, float] = {}
    start_total = time.perf_counter()
    mapped: MappedColumnarClaims | None = None
    try:
        start = time.perf_counter()
        world = generate_world(config.world, config.seed)
        freebase = build_freebase_snapshot(world)
        pipeline = build_extraction_pipeline(config, world)
        timings["setup"] = time.perf_counter() - start

        start = time.perf_counter()
        accumulator = ClaimAccumulator(granularity)
        n_pages = 0
        n_records = 0
        n_chunks = 0

        def counted_chunks():
            nonlocal n_pages
            for pages in stream_corpus(
                world, config.web, config.seed, chunk_pages, copy_window
            ):
                n_pages += len(pages)
                yield pages

        for records in pipeline.run_stream(
            counted_chunks(), backend=backend, executor=executor
        ):
            accumulator.add_records(records)
            n_records += len(records)
            n_chunks += 1
        timings["extraction"] = time.perf_counter() - start

        start = time.perf_counter()
        gold = label_gold_triples(freebase, accumulator.unique_triples())
        timings["labeling"] = time.perf_counter() - start

        start = time.perf_counter()
        cols = accumulator.build()
        accumulator.release()
        column_store = "memory"
        if cache_dir is not None:
            try:
                mapped = persist_columns(cols, cache_dir)
                cols = mapped
                column_store = "mapped"
            except OSError:
                # An unwritable/full cache directory degrades to the
                # in-memory columns — same bits, higher RSS.
                column_store = "memory (persist fallback)"
        timings["matrix"] = time.perf_counter() - start

        start = time.perf_counter()
        fuser = make_fuser(method, fusion_config, gold)
        fusion_result = fuser.fuse(FusionInput.from_columns(cols), executor=executor)
        timings["fusion"] = time.perf_counter() - start
    finally:
        executor.close()
        if mapped is not None:
            mapped.close()
    timings["total"] = time.perf_counter() - start_total

    diagnostics = dict(fusion_result.diagnostics)
    diagnostics["n_records"] = n_records
    diagnostics["n_pages"] = n_pages
    diagnostics["n_chunks"] = n_chunks
    diagnostics["chunk_pages"] = chunk_pages
    diagnostics["copy_window"] = copy_window
    diagnostics["column_store"] = column_store
    _stage_diagnostics(diagnostics, plan, pipeline, executor)
    diagnostics["peak_rss_mb"] = round(peak_rss_mb(), 1)

    return StreamingResult(
        fusion=fusion_result,
        backend=backend,
        n_workers=n_workers,
        n_pages=n_pages,
        n_records=n_records,
        timings=timings,
        metrics=headline_metrics(fusion_result, gold),
        diagnostics=diagnostics,
    )
