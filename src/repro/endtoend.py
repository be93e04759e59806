"""The end-to-end pipeline: extraction → fusion on one shared executor.

The paper's system is one pipeline — extract triples from a web corpus,
then fuse them — and :func:`run_end_to_end` is its one body here: setup →
extraction → gold labeling → (claim columns) → fusion, each stage written
once and clocked by :func:`timed_stage`.  A *materialised* run is the
single-chunk case of a *streamed* one (``chunk_pages`` picks; the web
tier of docs/SCALING.md streams).  Either way each record is interned
once, into one :class:`~repro.fusion.observations.ClaimAccumulator`, and
both stages run on the same executor protocol
(:mod:`repro.mapreduce.executors`): a single
:class:`~repro.mapreduce.executors.ParallelExecutor` carries the
extraction shards *and* every fusion round, so worker processes are paid
for once per run, not once per stage.  Pool-resident state makes the
hand-off cheap: extraction installs the 12-extractor fleet, fusion
installs the columnar claim index; the pool restarts exactly once at the
stage boundary and never re-ships state per shard.  In-process,
extraction runs on a :class:`~repro.mapreduce.executors.SerialExecutor`
and fusion is plain calls over the claim columns.

What a ``backend`` means for each stage, and the numeric contract it
honours against the serial path (``bitwise`` — the record stream, gold
labels, fused probabilities, accuracies and unpredicted set are equal
exactly — or the 1e-9 ``tolerance``), is the README's "Execution backends"
table; ``result.diagnostics["parity"]`` records which contract applied.
``repro-kf pipeline`` is the CLI face of this function.
"""

from __future__ import annotations

import resource
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.artifacts import setup_worldgen
from repro.datasets.scenario import (
    Scenario,
    ScenarioConfig,
    build_extraction_pipeline,
    # kfbench's planted-slowdown self-test wraps this name; see run_streaming_pipeline.
    label_gold_triples as label_gold,
)
from repro.errors import ConfigError
from repro.experiments.common import metrics_for
from repro.fusion.base import FusionConfig, FusionResult, Fuser
from repro.fusion.matrix import persist_columns
from repro.fusion.observations import ClaimAccumulator, FusionInput
from repro.fusion.presets import accu, popaccu, popaccu_plus, popaccu_plus_unsup, vote
from repro.kb.triples import Triple
from repro.mapreduce.executors import (
    EXECUTION_MODES,
    PIPELINE_MODES,
    Executor,
    fusion_mode_name,
)
from repro.world.facts import build_freebase_snapshot
from repro.world.webgen import stream_corpus
from repro.world.worldgen import generate_world

__all__ = [
    "PIPELINE_BACKENDS",
    "PIPELINE_METHODS",
    "EndToEndResult",
    "make_fuser",
    "peak_rss_mb",
    "run_end_to_end",
    "run_streaming_pipeline",
    "timed_stage",
]

#: Fusion method name -> preset, in ladder order.  Every preset takes the
#: :class:`FusionConfig`; ``popaccu+`` also takes the gold labels.
_PRESETS = {
    "vote": vote,
    "accu": accu,
    "popaccu": popaccu,
    "popaccu+unsup": popaccu_plus_unsup,
    "popaccu+": popaccu_plus,
}

#: Fusion method presets the pipeline (and the CLI) can run.
PIPELINE_METHODS = tuple(_PRESETS)

#: Execution backends the pipeline can run both stages under.
PIPELINE_BACKENDS = PIPELINE_MODES


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


def _preset(method: str):
    """The preset ``method`` names — the one place an unknown name is rejected."""
    if method not in _PRESETS:
        raise ConfigError(
            f"unknown fusion method {method!r}; expected one of {PIPELINE_METHODS}"
        )
    return _PRESETS[method]


def make_fuser(
    method: str,
    config: FusionConfig,
    gold_labels: dict[Triple, bool] | None = None,
) -> Fuser:
    """Resolve a method name from :data:`PIPELINE_METHODS` to a fuser."""
    preset = _preset(method)
    return preset(gold_labels, config) if preset is popaccu_plus else preset(config)


@contextmanager
def timed_stage(timings: dict[str, float], stage: str):
    """Clock a ``with`` body that completes into ``timings[stage]`` (seconds)."""
    start = time.perf_counter()
    yield
    timings[stage] = time.perf_counter() - start


@dataclass
class EndToEndResult:
    """Everything one pipeline run produced.

    ``timings`` holds per-stage wall-clock seconds under the keys
    ``setup`` (world + corpus + extractor construction), ``extraction``
    (interning the records included), ``labeling`` (LCWA gold),
    ``fusion``, and ``total``; a streamed run adds ``matrix``
    (claim-column assembly + persistence) and has no ``scenario`` —
    nothing corpus-sized survived it, only the counts.  ``metrics`` holds
    the headline numbers against the gold standard: calibration
    ``deviation`` / ``weighted_deviation``, ``auc_pr``, ``coverage``
    (fraction of unique triples scored), and ``gold_accuracy`` (fraction
    of gold-labelled predictions on the right side of p = 0.5).
    """

    scenario: Scenario | None
    fusion: FusionResult
    backend: str
    n_workers: int | None
    n_pages: int
    n_records: int
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
    chunk_pages: int | None = None,
    copy_window: int | None = 1024,
) -> EndToEndResult:
    """Run extraction → gold labeling → fusion on one shared executor.

    ``chunk_pages=None`` is the *materialised* case: one chunk, the whole
    corpus of :func:`repro.artifacts.setup_worldgen` (``cache_dir`` is its
    on-disk artifact cache, bit-identical to a fresh build;
    ``diagnostics["scenario_cache"]`` reports ``hit`` / ``miss`` /
    ``off``), with the records kept and returned in ``result.scenario``.
    A number is the *streamed* case: :func:`repro.world.webgen.stream_corpus`
    chunks of that many pages (``copy_window`` bounds its copy pool) are
    extracted, folded into the claim accumulator and dropped.  With
    ``cache_dir`` its claim columns are published to the content-addressed
    column store and fusion runs over read-only memory-mapped views
    (``diagnostics["column_store"] = "mapped"``), without it over the
    in-memory columns (``"memory"``) — bitwise-identical either way, by test.

    ``backend`` (one of :data:`PIPELINE_BACKENDS`) selects the execution
    mode for *both* stages; extraction is bit-identical under every one.
    A caller-managed ``executor`` overrides the executor choice (and is
    not closed here).  The fusion configuration inherits the scenario
    seed and the backend (as spelled below) unless ``fusion_config`` pins
    them.  ``diagnostics["peak_rss_mb"]`` is the process peak RSS after
    the run.
    """
    streamed = chunk_pages is not None
    # Rejected before any work: a typo must not waste minutes of extraction.
    if backend not in PIPELINE_BACKENDS:
        raise ConfigError(
            f"pipeline backend must be one of {PIPELINE_BACKENDS}, got {backend!r}"
        )
    _preset(method)
    if streamed and chunk_pages < 1:
        raise ConfigError(f"chunk_pages must be >= 1, got {chunk_pages}")
    if copy_window is not None and copy_window < 0:
        raise ConfigError(f"copy_window must be >= 0 or None, got {copy_window}")
    plan = EXECUTION_MODES[backend]
    if fusion_config is None:
        # The one policy difference between the two cases: a materialised
        # in-process run fuses the scalar kernel, which keeps ``batched``
        # bit-identical to ``serial`` end to end.
        fusion_config = FusionConfig(
            seed=config.seed,
            backend=fusion_mode_name(plan) if plan.pooled or streamed else "serial",
            n_workers=n_workers,
        )

    timings: dict[str, float] = {}
    records: list = []  # a streamed run keeps none
    chunk_sizes: list[int] = []
    with timed_stage(timings, "total"), ExitStack() as owned:
        if executor is None:
            executor = owned.enter_context(plan.executor(n_workers))

        with timed_stage(timings, "setup"):
            if streamed:
                world = generate_world(config.world, config.seed)
                freebase = build_freebase_snapshot(world)
                chunks = stream_corpus(
                    world, config.web, config.seed, chunk_pages, copy_window
                )
                store = {"chunk_pages": chunk_pages, "copy_window": copy_window}
            else:
                world, freebase, corpus, cache_status = setup_worldgen(
                    config.seed, config.world, config.web, cache_dir
                )
                chunks = [corpus.pages]
                store = {"scenario_cache": cache_status}
            pipeline = build_extraction_pipeline(config, world)

        with timed_stage(timings, "extraction"):
            accumulator = ClaimAccumulator(fusion_config.granularity)

            def counted(pages):
                chunk_sizes.append(len(pages))
                return pages

            for chunk_records in pipeline.run_stream(
                map(counted, chunks), backend=backend, executor=executor
            ):
                accumulator.add_records(chunk_records)
                if not streamed:
                    records.extend(chunk_records)

        with timed_stage(timings, "labeling"):
            gold = label_gold(freebase, accumulator.unique_triples())
            fuser = make_fuser(method, fusion_config, gold)

        if streamed:
            scenario = None
            with timed_stage(timings, "matrix"):
                # The preset's granularity: POPACCU+ overrides the configured one.
                cols = accumulator.build(fuser.config.granularity)
                accumulator.release()
                store["column_store"] = "memory"
                if cache_dir is not None:
                    try:
                        cols = persist_columns(cols, cache_dir)
                        owned.callback(cols.close)
                        store["column_store"] = "mapped"
                    except OSError:
                        # An unwritable/full cache directory degrades to
                        # the in-memory columns — same bits, higher RSS.
                        store["column_store"] = "memory (persist fallback)"
            # Bare columns: Stage III emits in canonical row order.
            fusion_input = FusionInput.from_columns(cols)
        else:
            # The records share the accumulator they were interned into, so
            # fusion (at any granularity) never walks them again, and
            # ``serial`` emits in record-arrival order.
            scenario = Scenario(
                config=config,
                world=world,
                freebase=freebase,
                corpus=corpus,
                pipeline=pipeline,
                records=records,
                gold=gold,
                _fusion_input=FusionInput(records, accumulator=accumulator),
            )
            fusion_input = scenario.fusion_input()

        with timed_stage(timings, "fusion"):
            fusion_result = fuser.fuse(fusion_input, executor=executor)

    n_pages, n_records = sum(chunk_sizes), accumulator.n_records
    diagnostics = dict(fusion_result.diagnostics)
    diagnostics.update(
        n_records=n_records, n_pages=n_pages, n_chunks=len(chunk_sizes), **store
    )
    # Constant since extraction has one kernel; kfbench pins the key, so
    # it goes with the [benchmark] PR of ROADMAP item 5(c).
    diagnostics["extraction_synthesis"] = "batched"
    if plan.pooled:
        diagnostics.update(executor.diagnostics())
    diagnostics["peak_rss_mb"] = round(peak_rss_mb(), 1)

    return EndToEndResult(
        scenario=scenario,
        fusion=fusion_result,
        backend=backend,
        n_workers=n_workers,
        n_pages=n_pages,
        n_records=n_records,
        timings=timings,
        metrics=headline_metrics(fusion_result, gold),
        diagnostics=diagnostics,
    )


def run_streaming_pipeline(
    config: ScenarioConfig,
    method: str = "popaccu+",
    fusion_config: FusionConfig | None = None,
    backend: str = "hybrid",
    n_workers: int | None = None,
    chunk_pages: int = 2048,
    copy_window: int | None = 1024,
    cache_dir: str | Path | None = None,
) -> EndToEndResult:
    """The streamed case of :func:`run_end_to_end` under its old name and
    ``web``-tier defaults, kept importable for ``benchmarks/kfbench`` —
    delete (with the ``label_gold`` alias) in the next ``[benchmark]`` PR."""
    return run_end_to_end(
        config, method, fusion_config, backend, n_workers,
        cache_dir=cache_dir, chunk_pages=chunk_pages, copy_window=copy_window,
    )
