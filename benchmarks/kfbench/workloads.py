"""The four kfbench workloads, as seen from inside one rep subprocess.

Everything here runs in a fresh child process (see :mod:`.rep`) and is the
only part of the benchmark that imports the program.  Per workload there
are four things: the one-off cold ``prepare`` (``setup_s``), the untraced
timed ``rep`` (one call of the public entry point, clocked from outside),
the serial ``reference`` the outputs are checked against, and the
``replica`` — the entry point's body replayed step by step through public
functions with a span around each call, which is where the per-layer
numbers come from.

Why these four (the interaction table is in README.md):

- ``mem-batched`` — the fastest bitwise single-process path: batched
  extraction kernels plus the scalar fusion loop do the work; page
  generation does none (artifact-cache hit) and the pool does none.
- ``pool-hybrid`` — identical input and cache through the 2-worker pool,
  so the difference to ``mem-batched`` *is* executors + codec + shm round
  state + shuffle.  A pool/IPC optimisation must show here and a kernel
  optimisation should barely move it.
- ``stream-batched`` — the out-of-core use of the same layers: page
  streaming, the claim accumulator, column persistence and fusion over
  mapped columns only run here.  A fresh cache dir per rep, because the
  column store is content-addressed and a reused dir would skip the write.
- ``fuse-ladder`` — fusion only: the paper's five-method ladder on the
  vectorized backend over one fresh ``FusionInput``; extraction does no
  timed work, the claim-matrix build and the round kernels are everything.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import resource
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.artifacts import LazyPageList, save_scenario_artifact, setup_worldgen
from repro.datasets.presets import small_config, tiny_config
from repro.datasets.scenario import (
    ScenarioConfig,
    build_extraction_pipeline,
    build_scenario,
    label_gold,
    label_gold_triples,
)
from repro.endtoend import (
    PIPELINE_METHODS,
    headline_metrics,
    make_fuser,
    run_end_to_end,
    run_streaming_pipeline,
)
from repro.extract.kernels import SynthesisCaches, classify_batch, synthesize_batch
from repro.extract.records import RECORD_WIRE_CODEC
from repro.fusion import kernels
from repro.fusion.base import FusionConfig, FusionResult
from repro.fusion.matrix import ClaimAccumulator, ColumnarFusionInput, persist_columns
from repro.fusion.observations import FusionInput
from repro.mapreduce.executors import ParallelExecutor, SerialExecutor, ShardedMapJob
from repro.world.facts import build_freebase_snapshot
from repro.world.webgen import generate_corpus, stream_corpus
from repro.world.worldgen import generate_world

from benchmarks.kfbench.spans import Tracer

METHOD = "popaccu+"
LADDER = PIPELINE_METHODS
N_WORKERS = 2
COPY_WINDOW = 1024
KERNEL_PROBE_CALLS = 5

#: Absolute tolerance of the ``hybrid``/``vectorized`` parity contract
#: (repro.fusion.base.PARITY_TOLERANCE_ABS); ``batched`` is bitwise.  The
#: contract is on probabilities, so it carries over at 1e-9 only to
#: statistics that are smooth in them: the four :func:`summarize` adds,
#: one of which is keyed by triple and so pins which triple got which
#: probability.  The program's headline metrics are not smooth — AUC-PR
#: takes equal probabilities as one block, the calibration deviations
#: bucket, gold accuracy thresholds — and 1e-16 of drift that splits a
#: block of tied triples has moved a ``fuse-ladder`` AUC-PR by 6.0e-4
#: (seeds 61, 91 and 104 of seeds 52-110; everything else agreed to 1.1e-4)
#: while the smooth statistics agreed to 1e-16.  Every rep of a seed
#: departs alike, so a bound the tail of that distribution reaches fails
#: whole runs: the headline metrics only get a sanity bound an order of
#: magnitude above the largest departure seen.
TOLERANCE = 1e-9
SMOOTH = (
    "mean_probability",
    "mean_squared_probability",
    "mean_keyed_probability",
    "mean_accuracy",
)
HEADLINE_TOLERANCE = 1e-2


@dataclass(frozen=True)
class Context:
    """What one child invocation works on."""

    workload: str
    seed: int
    quick: bool
    cache_dir: Path  # the warm scenario-artifact cache (benchmark-owned)
    scratch: Path  # this child's private temp dir, removed by the parent

    @property
    def config(self) -> ScenarioConfig:
        # ``small`` is the scale every committed envelope and the golden
        # test use; the quick twins run the same code on ``tiny``.
        return tiny_config(self.seed) if self.quick else small_config(self.seed)

    @property
    def chunk_pages(self) -> int:
        return 16 if self.quick else 512

    @property
    def bitwise(self) -> bool:
        """Does this workload's backend promise serial's exact bits?"""
        return self.workload == "mem-batched"


def metric_key(method: str) -> str:
    """A method name as a legal metric-name suffix (``+`` is not allowed)."""
    return method.replace("+unsup", "-plus-unsup").replace("+", "-plus")


def _dir_mib(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2**20


def peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Output summaries and checks
# ---------------------------------------------------------------------------


def _digest(result: FusionResult) -> str:
    """Bit-exact fingerprint of a fusion result (probabilities + unpredicted)."""
    h = hashlib.sha256()
    for line in sorted(
        f"{triple.canonical()}\t{probability.hex()}"
        for triple, probability in result.probabilities.items()
    ):
        h.update(line.encode())
    for line in sorted(triple.canonical() for triple in result.unpredicted):
        h.update(b"\x00" + line.encode())
    return h.hexdigest()


def summarize(result: FusionResult, metrics: dict) -> dict:
    """Counts, headline metrics and digest of one method's result.

    Four statistics of the benchmark's own ride along with the program's
    headline metrics because they are smooth in every output value, so the
    tolerance contract can be held to 1e-9 on them: the first two moments
    of the probabilities, their mean under per-triple weights (a checksum
    of the triple's name, so a probability filed under the wrong triple
    shows) and the mean provenance accuracy.
    """
    probabilities = result.probabilities.values()
    metrics = dict(metrics)
    metrics["mean_probability"] = math.fsum(probabilities) / len(probabilities)
    metrics["mean_squared_probability"] = math.fsum(
        p * p for p in probabilities
    ) / len(probabilities)
    metrics["mean_keyed_probability"] = math.fsum(
        zlib.crc32(triple.canonical().encode()) / 2**32 * p
        for triple, p in result.probabilities.items()
    ) / len(probabilities)
    if result.accuracies:
        metrics["mean_accuracy"] = math.fsum(result.accuracies.values()) / len(
            result.accuracies
        )
    counts = {
        "triples": len(result.probabilities) + len(result.unpredicted),
        "unpredicted": len(result.unpredicted),
        "rounds": result.rounds,
    }
    for key in ("claims", "items", "provenances"):
        if f"n_{key}" in result.diagnostics:
            counts[key] = result.diagnostics[f"n_{key}"]
    return {"counts": counts, "metrics": metrics, "digest": _digest(result)}


def check_against(observed: dict, expected: dict, bitwise: bool) -> list[str]:
    """Every way ``observed`` departs from the serial reference ``expected``.

    Counts are exact for every backend.  Metrics and the result digest
    are exact under the bitwise contract; under the tolerance contract
    the smooth statistics agree to 1e-9, the headline metrics to
    :data:`HEADLINE_TOLERANCE`, and the digest is only compared across reps.
    """
    problems = []
    for key in ("pages", "records", "chunks"):
        if key in expected and observed.get(key) != expected[key]:
            problems.append(f"{key}: {observed.get(key)} != {expected[key]}")
    for method, want in expected["methods"].items():
        got = observed["methods"].get(method)
        if got is None:
            problems.append(f"{method}: no result")
            continue
        for key, value in want["counts"].items():
            if key in got["counts"] and got["counts"][key] != value:
                problems.append(f"{method}.{key}: {got['counts'][key]} != {value}")
        for key, value in want["metrics"].items():
            seen = got["metrics"].get(key, math.nan)
            if bitwise:
                if seen != value:
                    problems.append(f"{method}.{key}: {seen!r} != {value!r} (bitwise)")
            else:
                tolerance = TOLERANCE if key in SMOOTH else HEADLINE_TOLERANCE
                if not math.isclose(seen, value, rel_tol=0.0, abs_tol=tolerance):
                    problems.append(
                        f"{method}.{key}: {seen!r} vs {value!r} beyond {tolerance}"
                    )
        if bitwise and got["digest"] != want["digest"]:
            problems.append(f"{method}: result digest differs from the serial reference")
    return problems


#: What ``result.diagnostics`` must say when the run took the path the
#: workload is named after, with no fallback anywhere.
EXPECTED_DIAGNOSTICS = {
    "mem-batched": {
        "backend_used": "serial",  # batched extraction, bitwise serial fusion
        "extraction_synthesis": "batched",
        "scenario_cache": "hit",
    },
    "pool-hybrid": {
        "backend_used": "hybrid",
        "scenario_cache": "hit",
        "n_workers": N_WORKERS,
        "round_state": "shared-memory",
        "fallbacks_tiny": 0,
        "fallbacks_unpicklable": 0,
        "fallbacks_shm": 0,
    },
    "stream-batched": {"backend_used": "vectorized", "column_store": "mapped"},
}


def _check_diagnostics(ctx: Context, diagnostics: dict) -> list[str]:
    wanted = {"synthesis_fallbacks": None, **EXPECTED_DIAGNOSTICS[ctx.workload]}
    return [
        f"{key}: {diagnostics.get(key)!r} != {value!r}"
        for key, value in wanted.items()
        if diagnostics.get(key) != value
    ]


# ---------------------------------------------------------------------------
# prepare — the one-off cold set-up (``setup_s``)
# ---------------------------------------------------------------------------


def _materialise(ctx: Context):
    """The records + gold ``fuse-ladder`` fuses, built from the warm cache."""
    return build_scenario(
        ctx.config, use_cache=False, backend="batched", cache_dir=ctx.cache_dir
    )


def prepare(ctx: Context) -> dict:
    """Cold set-up into the empty ``ctx.cache_dir``, clocked from outside.

    Calls what the entry points call on a cache miss.  ``stream-batched``
    has no artifact to prepare: its set-up is the world, the snapshot and
    the extractor fleet.
    """
    config = ctx.config
    start = time.perf_counter()
    if ctx.workload == "stream-batched":
        world = generate_world(config.world, config.seed)
        build_freebase_snapshot(world)
    else:
        world, _freebase, _corpus, status = setup_worldgen(
            config.seed, config.world, config.web, ctx.cache_dir
        )
        if status != "miss":
            raise AssertionError(f"cold prepare expected a cache miss, got {status!r}")
    build_extraction_pipeline(config, world)
    if ctx.workload == "fuse-ladder":
        _materialise(ctx)
    return {"setup_s": time.perf_counter() - start}


def traced_prepare(ctx: Context, tracer: Tracer) -> None:
    """The cache-miss path of ``setup_worldgen`` replayed with spans.

    Not used for ``stream-batched``, whose replica contains its set-up.
    """
    config = ctx.config
    with tracer.span("prepare", "harness"):
        with tracer.span("artifacts.cold_build", "data"):
            with tracer.span("world.worldgen.generate_world"):
                world = generate_world(config.world, config.seed)
            with tracer.span("world.facts.build_freebase_snapshot"):
                freebase = build_freebase_snapshot(world)
            with tracer.span("world.webgen.generate_corpus"):
                corpus = generate_corpus(world, config.web, config.seed)
            with tracer.span("artifacts.save_scenario_artifact"):
                save_scenario_artifact(ctx.cache_dir, config.seed, world, freebase, corpus)
        with tracer.span("datasets.scenario.build_extraction_pipeline", "data"):
            build_extraction_pipeline(config, world)
    tracer.count("world.webgen.pages", len(corpus.pages))
    tracer.count("artifacts.artifact_mib", _dir_mib(ctx.cache_dir))


# ---------------------------------------------------------------------------
# rep — one untraced call of the public entry point (``wall_s``)
# ---------------------------------------------------------------------------


def _ladder(ctx: Context, records, gold) -> dict:
    """The paper's method ladder over one fresh ``FusionInput``."""
    fusion_input = FusionInput(records)
    config = FusionConfig(seed=ctx.seed, backend="vectorized")
    methods = {}
    for method in LADDER:
        result = make_fuser(method, config, gold).fuse(fusion_input)
        methods[method] = (result, headline_metrics(result, gold))
    return methods


def rep(ctx: Context) -> dict:
    """One timed entry-point call plus the checks that need its objects."""
    config = ctx.config
    if ctx.workload == "fuse-ladder":
        scenario = _materialise(ctx)  # untimed: extraction is not this workload
        start = time.perf_counter()
        ladder = _ladder(ctx, scenario.records, scenario.gold)
        wall = time.perf_counter() - start
        problems = [
            f"{method}: backend_used {result.diagnostics['backend_used']!r}"
            for method, (result, _metrics) in ladder.items()
            if result.diagnostics["backend_used"] != "vectorized"
        ]
        observed = {
            "pages": len(scenario.corpus.pages),
            "records": len(scenario.records),
            "methods": {m: summarize(r, metrics) for m, (r, metrics) in ladder.items()},
        }
        return {"wall_s": wall, "observed": observed, "problems": problems}

    start = time.perf_counter()
    if ctx.workload == "stream-batched":
        result = run_streaming_pipeline(
            config,
            METHOD,
            backend="batched",
            chunk_pages=ctx.chunk_pages,
            copy_window=COPY_WINDOW,
            cache_dir=ctx.scratch / "columns",
        )
    elif ctx.workload == "pool-hybrid":
        result = run_end_to_end(
            config, METHOD, backend="hybrid", n_workers=N_WORKERS, cache_dir=ctx.cache_dir
        )
    else:
        result = run_end_to_end(config, METHOD, backend="batched", cache_dir=ctx.cache_dir)
    wall = time.perf_counter() - start

    observed = {
        "pages": result.diagnostics["n_pages"],
        "records": result.diagnostics["n_records"],
        "methods": {METHOD: summarize(result.fusion, result.metrics)},
    }
    if ctx.workload == "stream-batched":
        observed["chunks"] = result.diagnostics["n_chunks"]
    return {
        "wall_s": wall,
        "observed": observed,
        "problems": _check_diagnostics(ctx, result.diagnostics),
    }


# ---------------------------------------------------------------------------
# reference — the serial path every backend's contract is stated against
# ---------------------------------------------------------------------------


def reference(ctx: Context) -> dict:
    """Expected counts, metrics and digests from the ``serial`` backend.

    The in-memory workloads share one reference (``run_end_to_end`` on
    ``serial``); ``fuse-ladder`` adds the other four methods on serial
    fusion.  The streaming pipeline has no serial mode, so its reference
    is composed from the serial parts over the same page stream.
    """
    config = ctx.config
    serial = FusionConfig(seed=ctx.seed, backend="serial")
    if ctx.workload == "stream-batched":
        world = generate_world(config.world, config.seed)
        freebase = build_freebase_snapshot(world)
        pipeline = build_extraction_pipeline(config, world)
        chunks = list(
            stream_corpus(world, config.web, config.seed, ctx.chunk_pages, COPY_WINDOW)
        )
        records = [
            record
            for chunk_records in pipeline.run_stream(chunks, backend="serial")
            for record in chunk_records
        ]
        gold = label_gold(freebase, records)
        result = make_fuser(METHOD, serial, gold).fuse(FusionInput(records))
        return {
            "pages": sum(len(chunk) for chunk in chunks),
            "records": len(records),
            "chunks": len(chunks),
            "methods": {METHOD: summarize(result, headline_metrics(result, gold))},
        }

    run = run_end_to_end(config, METHOD, backend="serial", cache_dir=ctx.cache_dir)
    methods = {METHOD: summarize(run.fusion, run.metrics)}
    if ctx.workload == "fuse-ladder":
        gold = run.scenario.gold
        for method in LADDER:
            if method != METHOD:
                result = make_fuser(method, serial, gold).fuse(run.scenario.fusion_input())
                methods[method] = summarize(result, headline_metrics(result, gold))
    return {
        "pages": run.diagnostics["n_pages"],
        "records": run.diagnostics["n_records"],
        "methods": methods,
    }


# ---------------------------------------------------------------------------
# replica — the entry point's body, step by step, with spans
# ---------------------------------------------------------------------------


class TracedParallelExecutor(ParallelExecutor):
    """A ``ParallelExecutor`` that opens a span around each protocol call."""

    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self._tracer = tracer

    def install_state(self, key, value):
        with self._tracer.span("mapreduce.executors.install_state"):
            return super().install_state(key, value)

    def install_round_state(self, key, arrays):
        with self._tracer.span("mapreduce.executors.install_round_state"):
            return super().install_round_state(key, arrays)

    def run_map(self, items, job):
        if isinstance(items, LazyPageList):
            with self._tracer.span("artifacts.page_decode", "data"):
                items = list(items)
        with self._tracer.span("mapreduce.executors.run_map"):
            return super().run_map(items, job)

    def close(self):
        with self._tracer.span("mapreduce.executors.close"):
            return super().close()


def _extract_batched(tracer: Tracer, pipeline, pages: list) -> tuple[list, dict]:
    """One in-process batched shard through the public kernels.

    Mirrors what ``ExtractionPipeline.run(backend="batched")`` does with
    its single serial shard: coverage masks, batched synthesis with one
    fresh cache, one classification pass, then the page-major flatten.
    """
    extractors = tuple(pipeline.extractors)
    with tracer.span("extract.base.coverage_mask"):
        masks = [extractor.coverage_mask(pages) for extractor in extractors]
    with tracer.span("extract.synthesis.synthesize_batch"):
        per_page = synthesize_batch(
            extractors, pages, masks=masks, caches=SynthesisCaches()
        )
    with tracer.span("extract.kernels.classify_batch"):
        changed = classify_batch(list(zip(pages, per_page)))
    records = [record for page_records in per_page for record in page_records]
    stats = {
        "extract.base.covered_pairs": int(sum(int(mask.sum()) for mask in masks)),
        "extract.kernels.changed": changed,
    }
    return records, stats


def _count_result(tracer: Tracer, result: FusionResult, metrics: dict, cols, gold) -> None:
    """Counters every replica reports about its ``popaccu+`` result."""
    tracer.count("eval.auc_pr", metrics["auc_pr"])
    tracer.count("eval.wdev", metrics["weighted_deviation"])
    tracer.count("fusion.observations.n_claims", cols.n_claims)
    tracer.count("fusion.observations.n_items", cols.n_items)
    tracer.count("fusion.observations.n_provenances", len(cols.provenances))
    n_triples = len(result.probabilities) + len(result.unpredicted)
    tracer.count("datasets.scenario.labelled_share", len(gold) / n_triples)


def _count_fuse(tracer: Tracer, method: str, result: FusionResult, n_claims: int) -> None:
    tracer.count("fusion.runner.rounds_total", result.rounds)
    tracer.count("_claim_rounds", n_claims * max(result.rounds, 1))
    # Which batched kernel the method's rounds run (for overhead_s).
    kernel = "accu" if method == "accu" else "popaccu"
    tracer.count(f"_rounds.{kernel}", result.rounds)


def _kernel_probes(tracer: Tracer, cols) -> None:
    """Direct calls of the batched round kernels on the claim columns."""
    n_provs = len(cols.provenances)
    accuracies = np.full(n_provs, 0.8)
    active = np.ones(n_provs, dtype=bool)
    for _ in range(KERNEL_PROBE_CALLS):
        with tracer.span("fusion.kernels.accu_round", "knowledge"):
            kernels.accu_round(cols, accuracies, active, 100)
        with tracer.span("fusion.kernels.popaccu_round", "knowledge"):
            round_result = kernels.popaccu_round(cols, accuracies, active)
        with tracer.span("fusion.kernels.stage2_accuracies", "knowledge"):
            kernels.stage2_accuracies(cols, round_result, active)
    tracer.count("_kernel_probe_claims", cols.n_claims)


def _noop_shard(items: list) -> list:
    return items


def _pool_probes(tracer: Tracer, ctx, pipeline, corpus, records, fusion_input, gold) -> None:
    """What the pool is compared against, on the same pages and records."""
    pages = list(corpus.pages)
    with tracer.span("probe.extract_inprocess", "information"):
        _extract_batched(tracer, pipeline, pages)
    vectorized = FusionConfig(seed=ctx.seed, backend="vectorized")
    with tracer.span("probe.fuse_vectorized", "knowledge"):
        make_fuser(METHOD, vectorized, gold).fuse(fusion_input)
    # A fresh pool with the fleet installed, up to its first (empty) job.
    with tracer.span("mapreduce.executors.pool_start", "information"):
        executor = ParallelExecutor(max_workers=N_WORKERS)
        try:
            executor.install_state("kfbench.fleet", tuple(pipeline.extractors))
            job = ShardedMapJob(name="kfbench.noop", map_shard=_noop_shard, key_fn=int)
            executor.run_map(list(range(4 * N_WORKERS)), job)
        finally:
            executor.close()
    with tracer.span("mapreduce.codec.encode", "information"):
        wire = RECORD_WIRE_CODEC.encode(records)
    with tracer.span("mapreduce.codec.decode", "information"):
        RECORD_WIRE_CODEC.decode(wire)
    tracer.count("mapreduce.codec.wire_bytes_per_record", len(pickle.dumps(wire)) / len(records))


def replica(ctx: Context, tracer: Tracer) -> dict:
    """Replay ``ctx.workload``'s entry point with spans; returns ``observed``.

    The root span of the rep is ``kfbench.rep``; its first child mirrors
    the entry point (its duration is the traced replica wall) and the
    second, ``probes``, holds measurements the entry point does not make.
    """
    with tracer.span("kfbench.rep", "harness"):
        if ctx.workload == "stream-batched":
            return _replica_stream(ctx, tracer)
        if ctx.workload == "fuse-ladder":
            return _replica_ladder(ctx, tracer)
        return _replica_end_to_end(ctx, tracer)


def _replica_end_to_end(ctx: Context, tracer: Tracer) -> dict:
    config = ctx.config
    pooled = ctx.workload == "pool-hybrid"
    fusion_config = FusionConfig(
        seed=ctx.seed,
        backend="hybrid" if pooled else "serial",
        n_workers=N_WORKERS if pooled else None,
    )
    with tracer.span("endtoend.run_end_to_end"):
        executor = (
            TracedParallelExecutor(tracer, max_workers=N_WORKERS)
            if pooled
            else SerialExecutor()
        )
        try:
            with tracer.span("artifacts.warm_load", "data"):
                world, freebase, corpus, _status = setup_worldgen(
                    config.seed, config.world, config.web, ctx.cache_dir
                )
            with tracer.span("datasets.scenario.build_extraction_pipeline", "data"):
                pipeline = build_extraction_pipeline(config, world)
            with tracer.span("extract.pipeline.run", "information"):
                if pooled:
                    records = pipeline.run(corpus, backend="hybrid", executor=executor)
                else:
                    with tracer.span("artifacts.page_decode", "data"):
                        pages = list(corpus.pages)
                    records, stats = _extract_batched(tracer, pipeline, pages)
            with tracer.span("datasets.scenario.label_gold", "knowledge"):
                gold = label_gold(freebase, records)
            with tracer.span(f"fusion.runner.fuse.{metric_key(METHOD)}", "knowledge"):
                fuser = make_fuser(METHOD, fusion_config, gold)
                fusion_input = FusionInput(records)
                with tracer.span("fusion.observations.claim_matrix_build"):
                    matrix = fusion_input.claims(fuser.config.granularity)
                    if pooled:
                        matrix.columnar()
                result = fuser.fuse(fusion_input, executor=executor)
        finally:
            executor.close()
        with tracer.span("eval.headline_metrics", "knowledge"):
            metrics = headline_metrics(result, gold)

    cols = matrix.columnar()
    tracer.count("extract.synthesis.records", len(records))
    tracer.count("extract.synthesis.fallbacks", len(pipeline.synthesis_fallbacks()))
    _count_result(tracer, result, metrics, cols, gold)
    _count_fuse(tracer, METHOD, result, cols.n_claims)
    if pooled:
        tracer.count("mapreduce.executors.state_bytes_shipped", executor.state_bytes_shipped)
        tracer.count("mapreduce.executors.fallbacks", executor.fallbacks)
        tracer.count(
            "mapreduce.executors.worker_peak_rss_mib", peak_rss_mib(resource.RUSAGE_CHILDREN)
        )
        with tracer.span("probes"):
            _pool_probes(tracer, ctx, pipeline, corpus, records, fusion_input, gold)
    else:
        for name, value in stats.items():
            tracer.count(name, value)
    return {
        "pages": len(corpus.pages),
        "records": len(records),
        "methods": {METHOD: summarize(result, metrics)},
    }


def _replica_stream(ctx: Context, tracer: Tracer) -> dict:
    config = ctx.config
    fusion_config = FusionConfig(seed=ctx.seed, backend="vectorized")
    granularity = make_fuser(METHOD, fusion_config, {}).config.granularity
    n_pages = n_records = n_chunks = 0
    with tracer.span("endtoend.run_streaming_pipeline"):
        with tracer.span("world.worldgen.generate_world", "data"):
            world = generate_world(config.world, config.seed)
        with tracer.span("world.facts.build_freebase_snapshot", "data"):
            freebase = build_freebase_snapshot(world)
        with tracer.span("datasets.scenario.build_extraction_pipeline", "data"):
            pipeline = build_extraction_pipeline(config, world)
        accumulator = ClaimAccumulator(granularity)
        chunks = tracer.timed_iter(
            "world.webgen.stream_corpus",
            "data",
            stream_corpus(world, config.web, config.seed, ctx.chunk_pages, COPY_WINDOW),
        )
        for pages in chunks:
            with tracer.span("extract.pipeline.run_stream", "information"):
                records, stats = _extract_batched(tracer, pipeline, list(pages))
            with tracer.span("fusion.matrix.add_records", "knowledge"):
                accumulator.add_records(records)
            n_pages += len(pages)
            n_records += len(records)
            n_chunks += 1
            for name, value in stats.items():
                tracer.count(name, value)
        with tracer.span("datasets.scenario.label_gold", "knowledge"):
            gold = label_gold_triples(freebase, accumulator.unique_triples())
        with tracer.span("fusion.matrix.build", "knowledge"):
            cols = accumulator.build()
            accumulator.release()
        with tracer.span("fusion.matrix.persist", "knowledge"):
            mapped = persist_columns(cols, ctx.scratch / "columns")
        try:
            with tracer.span(f"fusion.runner.fuse.{metric_key(METHOD)}", "knowledge"):
                result = make_fuser(METHOD, fusion_config, gold).fuse(
                    ColumnarFusionInput(mapped), executor=SerialExecutor()
                )
        finally:
            mapped.close()
        with tracer.span("eval.headline_metrics", "knowledge"):
            metrics = headline_metrics(result, gold)

    tracer.count("world.webgen.pages", n_pages)
    tracer.count("extract.synthesis.records", n_records)
    tracer.count("extract.synthesis.fallbacks", len(pipeline.synthesis_fallbacks()))
    tracer.count("fusion.matrix.column_store_mib", _dir_mib(ctx.scratch / "columns"))
    _count_result(tracer, result, metrics, cols, gold)
    _count_fuse(tracer, METHOD, result, cols.n_claims)
    with tracer.span("probes"):
        _kernel_probes(tracer, cols)
    return {
        "pages": n_pages,
        "records": n_records,
        "chunks": n_chunks,
        "methods": {METHOD: summarize(result, metrics)},
    }


def _replica_ladder(ctx: Context, tracer: Tracer) -> dict:
    scenario = _materialise(ctx)  # untimed and unspanned, as in the rep
    gold = scenario.gold
    config = FusionConfig(seed=ctx.seed, backend="vectorized")
    ladder = {}
    with tracer.span("fuse-ladder"):
        fusion_input = FusionInput(scenario.records)
        for method in LADDER:
            with tracer.span(f"fusion.runner.fuse.{metric_key(method)}", "knowledge"):
                fuser = make_fuser(method, config, gold)
                with tracer.span("fusion.observations.claim_matrix_build"):
                    cols = fusion_input.claims(fuser.config.granularity).columnar()
                result = fuser.fuse(fusion_input)
            with tracer.span("eval.headline_metrics", "knowledge"):
                metrics = headline_metrics(result, gold)
            ladder[method] = (result, metrics, cols.n_claims)
    for method, (rung, _metrics, n_claims) in ladder.items():
        _count_fuse(tracer, method, rung, n_claims)
    # ``cols``/``result`` are the last rung's: popaccu+, as everywhere else.
    _count_result(tracer, result, metrics, cols, gold)
    with tracer.span("probes"):
        _kernel_probes(tracer, cols)
    return {
        "pages": len(scenario.corpus.pages),
        "records": len(scenario.records),
        "methods": {m: summarize(r, metrics) for m, (r, metrics, _n) in ladder.items()},
    }
