"""The benchmark registry: every measurable case behind one discoverable API.

Historically each paper figure/table had its own ``bench_fig*.py`` script
(25 near-identical files); this module replaces them with a single
registry the runner (``benchmarks/run.py``) and the pytest face
(``benchmarks/bench_registry.py``) both discover cases from.

Three kinds of case live here:

- **stage** cases (``pipeline``, ``backends``, ``sampling``,
  ``extraction``) — the performance benchmarks proper.  Each one
  *asserts its backends' documented parity contract* (extraction records
  bitwise in every mode; vectorized/hybrid fusion within the 1e-9
  ``repro.fusion.PARITY_TOLERANCE_ABS`` tolerance of serial, and hybrid ==
  vectorized bitwise) **before** reporting a single timing, so a
  comparison can never quietly measure two different computations.
- **experiment** cases (``fig3`` … ``fig22``, ``table1`` … ``table3``) —
  regenerate one paper artifact on the shared scenario, persist the
  rendered report to ``benchmarks/results/<id>.txt`` and run the
  per-figure sanity checks the old scripts carried.
- **extension** case (``extensions``) — the §5 future-direction ablations
  (split quality, multi-truth, hierarchy, confidence weighting) against
  their natural baselines, persisted to ``results/ext_*.txt``.

Every case takes a :class:`BenchContext` — the shared, *warm* resources
of one runner invocation: scenarios are built once per scale and the
pooled runs share one live :class:`ParallelExecutor` (one pool paid
for per invocation, the way a long-running service would hold it), and
returns a JSON-serializable report the runner wraps into
``benchmarks/results/BENCH_<case>.json``.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.datasets import (
    STREAMING_SCALES,
    build_scenario,
    medium_config,
    small_config,
    tiny_config,
    web_config,
)
from repro.experiments import experiment_ids, run_experiment
from repro.mapreduce.executors import ParallelExecutor

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SCALES = {
    "tiny": tiny_config,
    "small": small_config,
    "medium": medium_config,
    "web": web_config,
}

#: The documented parity bound hybrid/vectorized metrics must honour
#: against serial (asserted equal to ``repro.fusion.PARITY_TOLERANCE_ABS``
#: at run time so a drifting contract fails loudly here too).
TOLERANCE_PARITY_ABS = 1e-9

#: Minimum vectorized-over-serial speedup the ``backends`` case enforces.
MIN_VECTORIZED_SPEEDUP = 3.0

#: Peak-RSS ceiling (MiB) the ``pipeline`` case enforces at the ``web``
#: scale.  The materialised web corpus + record list would run well past
#: 10 GiB (72k pages, ~10⁶ heavyweight record objects, ~28x ``small``);
#: the streaming pipeline's whole point is staying two orders of
#: magnitude under that.  Measured peak on the reference 1-core box
#: (hybrid, 2 workers, default chunking, mapped columns): ~390 MiB —
#: one in-flight chunk of records + the growing accumulator + the pool.
#: The ceiling carries ~2.5x headroom for allocator/platform variance
#: and higher worker counts while staying 10x+ under the materialised
#: footprint the tier exists to avoid.
WEB_PEAK_RSS_CEILING_MB = 1024

#: Stage timings are best-of-N perf_counter passes.  Public because the
#: runner promotes it into every envelope (``timing_rounds``) so the
#: perf-trajectory comparator knows what the blessed numbers mean.
TIMING_ROUNDS = 3

_TIMING_ROUNDS = TIMING_ROUNDS  # backwards-compatible alias


@dataclass
class BenchContext:
    """Shared warm state for one runner invocation.

    ``scenario()`` builds (and caches) the deterministic scenario for the
    context's scale; ``executor()`` returns the invocation-wide warm
    :class:`ParallelExecutor` every pooled run shares — the pool and
    its resident state are paid for once, not once per case.  ``close()``
    releases the pool (the runner calls it in a ``finally``).
    ``cache_dir`` (``--cache-dir``) points worldgen at the on-disk
    scenario artifact cache (:mod:`repro.artifacts`) so repeat
    invocations — CI lanes above all — skip generation entirely; hits are
    bit-identical to a fresh build by the artifact contract.
    """

    scale: str = "small"
    seed: int = 0
    workers: int | None = None
    results_dir: Path = RESULTS_DIR
    cache_dir: Path | None = None
    _scenarios: dict = field(default_factory=dict, repr=False)
    _executor: ParallelExecutor | None = field(default=None, repr=False)

    def scenario(self):
        if self.scale in STREAMING_SCALES:
            raise RuntimeError(
                f"scale {self.scale!r} is out-of-core: no case may "
                "materialise its scenario — only the streaming-aware "
                "cases (pipeline) run at this scale"
            )
        key = (self.scale, self.seed)
        if key not in self._scenarios:
            self._scenarios[key] = build_scenario(
                SCALES[self.scale](seed=self.seed), cache_dir=self.cache_dir
            )
        return self._scenarios[key]

    def executor(self) -> ParallelExecutor:
        if self._executor is None:
            self._executor = ParallelExecutor(max_workers=self.workers)
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def environment(self) -> dict:
        """The host facts every report carries.

        ``python``/``machine``/``cpu_count``/``workers`` double as the
        perf-trajectory environment fingerprint
        (:func:`benchmarks.compare.fingerprint_of`): baseline wall-clock
        only gates runs from the same runner class.
        """
        return {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "workers": self.workers or max(2, os.cpu_count() or 1),
        }


@dataclass(frozen=True)
class BenchCase:
    """One registered benchmark: a name, a kind, and a runnable body."""

    name: str
    run: Callable[[BenchContext], dict]
    description: str
    kind: str = "stage"  # "stage" | "experiment" | "extension"


REGISTRY: dict[str, BenchCase] = {}


def register(name: str, description: str, kind: str = "stage"):
    """Class the decorated callable as the body of case ``name``."""

    def decorate(fn: Callable[[BenchContext], dict]):
        REGISTRY[name] = BenchCase(
            name=name, run=fn, description=description, kind=kind
        )
        return fn

    return decorate


def _best_of(fn, rounds: int = TIMING_ROUNDS) -> float:
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return min(timings)


# ---------------------------------------------------------------------------
# Stage cases: the performance benchmarks (parity asserted before timing)
# ---------------------------------------------------------------------------


@register(
    "pipeline",
    "end-to-end per-stage wall-clock: serial vs hybrid, the pooled run on "
    "the shared executor (records asserted bitwise, hybrid metrics within "
    "1e-9, before any timing is reported)",
)
def pipeline_case(ctx: BenchContext) -> dict:
    """Port of the old ``bench_pipeline.py`` script mode.

    The hybrid runs share the context's warm executor; the serial run
    owns a throwaway ``SerialExecutor`` as before.  The report is the
    artifact the ROADMAP speedup numbers (and the CI ``perf-crossover``
    lane) come from.
    """
    from repro.endtoend import run_end_to_end
    from repro.fusion import PARITY_TOLERANCE_ABS

    assert TOLERANCE_PARITY_ABS == PARITY_TOLERANCE_ABS

    if ctx.scale in STREAMING_SCALES:
        return _streaming_pipeline_case(ctx)

    config = SCALES[ctx.scale](seed=ctx.seed)
    executor = ctx.executor()

    def run(backend: str):
        if backend == "serial":
            return run_end_to_end(
                config, method="popaccu+", backend="serial", cache_dir=ctx.cache_dir
            )
        return run_end_to_end(
            config, method="popaccu+", backend=backend,
            n_workers=ctx.workers, executor=executor, cache_dir=ctx.cache_dir,
        )

    serial, hybrid = run("serial"), run("hybrid")

    # Parity first, timings second: the record stream bit-for-bit, hybrid
    # fusion within the documented tolerance contract.
    assert hybrid.fusion.diagnostics["backend_used"] == "hybrid"
    assert hybrid.scenario.records == serial.scenario.records
    hybrid_metric_delta = max(
        abs(hybrid.metrics[name] - value) for name, value in serial.metrics.items()
    )
    assert hybrid_metric_delta <= TOLERANCE_PARITY_ABS, (
        f"hybrid metrics drifted {hybrid_metric_delta:.3e} from serial "
        f"(contract: <= {TOLERANCE_PARITY_ABS})"
    )

    # Best-of-N per-stage wall-clock (the first, parity-asserted pass
    # counts as round 1).  The cold ``stages`` numbers below stay in the
    # report for eyeballing, but the perf-trajectory comparator gates on
    # these: best-of-N over a warm pool is what survives runner noise.
    first = {"serial": serial, "hybrid": hybrid}
    stage_rounds = {
        backend: [result.timings]
        + [run(backend).timings for _ in range(TIMING_ROUNDS - 1)]
        for backend, result in first.items()
    }
    best_of = {
        f"{backend}.{stage}": round(min(t[stage] for t in rounds), 4)
        for backend, rounds in stage_rounds.items()
        for stage in rounds[0]
    }

    def round3(timings: dict) -> dict:
        return {stage: round(elapsed, 3) for stage, elapsed in timings.items()}

    return {
        "best_of": best_of,
        "n_pages": serial.diagnostics["n_pages"],
        "n_records": serial.diagnostics["n_records"],
        "workers": hybrid.diagnostics.get("n_workers"),
        "bit_identical": True,
        "scenario_cache": serial.diagnostics.get("scenario_cache", "off"),
        "hybrid_parity": hybrid.fusion.diagnostics["parity"],
        "hybrid_max_metric_delta": hybrid_metric_delta,
        "round_state": hybrid.diagnostics.get("round_state"),
        "stages": {backend: round3(result.timings) for backend, result in first.items()},
        "parallel_fallbacks": {
            "tiny": hybrid.diagnostics.get("fallbacks_tiny", 0),
            "unpicklable": hybrid.diagnostics.get("fallbacks_unpicklable", 0),
            "shm": hybrid.diagnostics.get("fallbacks_shm", 0),
        },
        "metrics": {name: round(v, 6) for name, v in serial.metrics.items()},
    }


def _streaming_pipeline_case(ctx: BenchContext) -> dict:
    """The ``pipeline`` case's out-of-core branch (``--scale web``).

    One measured streamed :func:`~repro.endtoend.run_end_to_end` pass
    under the ``hybrid`` backend — a web-scale run is minutes of
    wall-clock, so unlike the in-memory branch it is a single round, not
    best-of-N (the envelope records ``timing_rounds: 1``).  The parity
    gates the in-memory branch runs here are enforced at ``small`` by
    the regression suite instead (mapped == in-memory bitwise, streaming
    == record path per backend contract) — asserting them at web would
    require the forbidden materialised reference.  What *is* asserted
    before the numbers are trusted: the run stayed under
    :data:`WEB_PEAK_RSS_CEILING_MB`, the columns actually memory-mapped
    when a cache directory was supplied, and the hybrid tolerance
    contract engaged.
    """
    from repro.endtoend import peak_rss_mb, run_end_to_end

    config = SCALES[ctx.scale](seed=ctx.seed)
    result = run_end_to_end(
        config,
        method="popaccu+",
        backend="hybrid",
        n_workers=ctx.workers,
        cache_dir=ctx.cache_dir,
        chunk_pages=2048,
    )
    diagnostics = result.diagnostics
    assert diagnostics["parity"] == "tolerance"
    if ctx.cache_dir is not None:
        assert diagnostics["column_store"] == "mapped", diagnostics["column_store"]
    peak = peak_rss_mb()
    assert peak <= WEB_PEAK_RSS_CEILING_MB, (
        f"web-scale streaming pipeline peaked at {peak:.0f} MiB "
        f"(ceiling: {WEB_PEAK_RSS_CEILING_MB} MiB) — the out-of-core "
        "path is leaking residency somewhere"
    )
    return {
        "streaming": True,
        "timing_rounds": 1,
        "best_of": {
            f"hybrid.{stage}": round(elapsed, 4)
            for stage, elapsed in result.timings.items()
        },
        "n_pages": result.n_pages,
        "n_records": result.n_records,
        "n_chunks": diagnostics["n_chunks"],
        "chunk_pages": diagnostics["chunk_pages"],
        "workers": diagnostics.get("n_workers"),
        "column_store": diagnostics["column_store"],
        "peak_rss_mb": round(peak, 1),
        "rss_ceiling_mb": WEB_PEAK_RSS_CEILING_MB,
        "hybrid_parity": diagnostics["parity"],
        "round_state": diagnostics.get("round_state"),
        "state_bytes_shipped": diagnostics.get("state_bytes_shipped"),
        "parallel_fallbacks": {
            "tiny": diagnostics.get("fallbacks_tiny", 0),
            "unpicklable": diagnostics.get("fallbacks_unpicklable", 0),
            "shm": diagnostics.get("fallbacks_shm", 0),
        },
        "stages": {
            "hybrid": {
                stage: round(elapsed, 3)
                for stage, elapsed in result.timings.items()
            }
        },
        "metrics": {name: round(v, 6) for name, v in result.metrics.items()},
    }


def _popaccu_round_results(ctx: BenchContext, sample_limit: int | None) -> tuple:
    """One POPACCU round under every fusion backend, parity asserted.

    Returns ``(run, results, max_delta)``: ``run(backend)`` repeats the
    round (hybrid on the context's shared warm executor); ``results`` are
    the first, parity-checked runs — ``vectorized`` / ``hybrid`` report
    their own name and ``tolerance``, equal each other bit for bit, and
    sit within the 1e-9 contract of ``serial`` with the same θ outcome;
    ``max_delta`` is the largest probability difference to serial.
    """
    from repro.fusion import BACKENDS, FusionConfig, popaccu

    fusion_input = ctx.scenario().fusion_input()
    executor = ctx.executor()

    def run(backend: str):
        config = FusionConfig(
            max_rounds=1, convergence_tol=0.0, backend=backend,
            sample_limit=sample_limit,
        )
        return popaccu(config).fuse(fusion_input, executor=executor)

    # Warm the shared caches (claim matrix + columnar index + pool) once,
    # the way any multi-round fusion run would.
    results = {backend: run(backend) for backend in BACKENDS}
    serial, vectorized, hybrid = (results[b] for b in ("serial", "vectorized", "hybrid"))
    for backend, result in results.items():
        assert result.diagnostics["backend_used"] == backend, result.diagnostics
    assert vectorized.diagnostics["parity"] == hybrid.diagnostics["parity"] == "tolerance"
    assert list(hybrid.probabilities.items()) == list(vectorized.probabilities.items())
    assert hybrid.accuracies == vectorized.accuracies
    max_delta = 0.0
    for triple, probability in serial.probabilities.items():
        delta = abs(vectorized.probabilities[triple] - probability)
        max_delta = max(max_delta, delta)
        assert delta <= TOLERANCE_PARITY_ABS, triple
    assert set(vectorized.probabilities) == set(serial.probabilities)
    assert (
        vectorized.diagnostics["n_active_final"] == serial.diagnostics["n_active_final"]
    )
    return run, results, max_delta


def _timing_lines(title: str, timings: dict) -> list[str]:
    return [
        title,
        *(
            f"{backend:>12}: {seconds * 1000:9.1f} ms"
            for backend, seconds in sorted(timings.items(), key=lambda kv: kv[1])
        ),
        f"vectorized speedup over serial-scalar: "
        f"{timings['serial'] / timings['vectorized']:.1f}x",
    ]


@register(
    "backends",
    "one POPACCU round under all three fusion backends on the shared warm "
    "executor (vectorized/hybrid 1e-9 of serial and bitwise equal, "
    "vectorized >= 3x serial) -> results/backends.txt",
)
def backends_case(ctx: BenchContext) -> dict:
    run, results, max_delta = _popaccu_round_results(ctx, None)
    serial = results["serial"]
    timings = {backend: _best_of(lambda b=backend: run(b)) for backend in results}
    speedup = timings["serial"] / timings["vectorized"]
    lines = _timing_lines(
        "POPACCU single round, shared session scenario "
        f"({len(serial.probabilities)} fused triples); best of {TIMING_ROUNDS}",
        timings,
    )
    (ctx.results_dir / "backends.txt").write_text("\n".join(lines) + "\n")
    assert speedup >= MIN_VECTORIZED_SPEEDUP, (
        f"vectorized backend only {speedup:.2f}x faster than scalar "
        f"(required >= {MIN_VECTORIZED_SPEEDUP}x)\n" + "\n".join(lines)
    )
    return {
        "best_of": {b: round(s, 4) for b, s in timings.items()},
        "timings_ms": {b: round(s * 1000, 1) for b, s in timings.items()},
        "vectorized_speedup": round(speedup, 2),
        "tolerance_max_delta": max_delta,
        "round_state": results["hybrid"].diagnostics.get("round_state"),
        "n_triples": len(serial.probabilities),
    }


@register(
    "sampling",
    "an L-sampled POPACCU round under all three fusion backends: sampling "
    "is one claim mask every kernel reads, so each backend keeps its "
    "kernel (parity asserted first) -> results/sampling.txt",
)
def sampling_case(ctx: BenchContext) -> dict:
    # Engage sampling on a meaningful fraction of items without gutting
    # the workload (the small scenario's largest items carry ~40 claims).
    sample_limit = 5
    run, results, max_delta = _popaccu_round_results(ctx, sample_limit)
    assert all(r.diagnostics["sampling"] == "canonical-order" for r in results.values())
    timings = {backend: _best_of(lambda b=backend: run(b)) for backend in results}
    lines = _timing_lines(
        f"POPACCU single round, L={sample_limit} (sampling engaged), "
        f"canonical-order contract; best of {TIMING_ROUNDS}",
        timings,
    ) + ["every backend_used == backend requested (no kernel swap)"]
    (ctx.results_dir / "sampling.txt").write_text("\n".join(lines) + "\n")
    return {
        "sample_limit": sample_limit,
        "best_of": {b: round(s, 4) for b, s in timings.items()},
        "timings_ms": {b: round(s * 1000, 1) for b, s in timings.items()},
        "tolerance_max_delta": max_delta,
        "backend_used": {b: r.diagnostics["backend_used"] for b, r in results.items()},
        "sampling": results["serial"].diagnostics["sampling"],
    }


@register(
    "extraction",
    "the extraction stage alone, serial vs hybrid over the shared warm "
    "executor (record stream asserted bit-identical before timing)",
)
def extraction_case(ctx: BenchContext) -> dict:
    scenario = ctx.scenario()
    pipeline, corpus = scenario.pipeline, scenario.corpus
    executor = ctx.executor()

    serial_records = pipeline.run(corpus, backend="serial")
    hybrid_records = pipeline.run(corpus, backend="hybrid", executor=executor)
    assert hybrid_records == serial_records  # bitwise, before timing

    timings = {
        "serial": _best_of(lambda: pipeline.run(corpus, backend="serial")),
        "hybrid": _best_of(
            lambda: pipeline.run(corpus, backend="hybrid", executor=executor)
        ),
    }
    return {
        "n_pages": len(corpus.pages),
        "n_records": len(serial_records),
        "bit_identical": True,
        "best_of": {b: round(s, 4) for b, s in timings.items()},
        "timings_ms": {b: round(s * 1000, 1) for b, s in timings.items()},
    }


# ---------------------------------------------------------------------------
# Experiment cases: one per paper figure/table, with the sanity checks the
# old per-figure bench scripts carried
# ---------------------------------------------------------------------------


def _check_fig3(data, scenario):
    contributions = data["contributions"]
    assert contributions["DOM"] == max(contributions.values())
    assert contributions["TBL"] == min(contributions.values())
    # Overlaps are small relative to contributions.
    assert max(data["overlaps"].values()) < contributions["DOM"] * 0.5


def _check_fig4(data, scenario):
    assert 0.0 < data["share_low"] < 1.0
    assert abs(sum(s for _b, s in data["histogram"]) - 1.0) < 1e-9


def _check_fig5(data, scenario):
    assert data["mean_gap"] > 0.1  # paper: 0.32
    assert data["share_above_half"] > 0.0  # paper: 21%


def _check_fig6(data, scenario):
    points = data["points"]
    assert points, "no accuracy points"
    lows = [a for x, _n, a in points if x == 1]
    highs = [a for x, _n, a in points if x >= 4]
    assert not highs or not lows or max(highs) > lows[0]


def _check_fig7(data, scenario):
    points = data["points"]
    assert points[0][2] < 0.6  # single-URL triples are unreliable
    assert max(a for _e, _n, a in points) > points[0][2]


def _check_fig9(data, scenario):
    assert data["VOTE"]["auc_pr"] == min(
        data[m]["auc_pr"] for m in ("VOTE", "ACCU", "POPACCU")
    )


def _check_fig10(data, scenario):
    assert len(data) == 4
    finest = data["(Ext, Site, Pred, Pattern)"]
    coarsest = data["(Extractor, URL)"]
    assert finest["n_provenances"] != coarsest["n_provenances"]


def _check_fig11(data, scenario):
    assert data["BYCOV"]["predicted_share"] < 1.0
    assert data["NOFILTERING"]["predicted_share"] == 1.0


def _check_fig12(data, scenario):
    assert data["100%"]["auc_pr"] > data["default"]["auc_pr"]


def _check_fig13(data, scenario):
    assert data["+GoldStandard"]["wdev"] < data["POPACCU"]["wdev"]
    assert data["+GoldStandard"]["auc_pr"] > data["POPACCU"]["auc_pr"]


def _check_fig14(data, scenario):
    per_round = data["per_round_wdev"]
    assert len(per_round["DefaultAccu"]) == 5
    lr = data["lr_table"]
    assert abs(lr["L=1K, R=5"]["wdev"] - lr["L=1M, R=5"]["wdev"]) < 0.02


def _check_fig15(data, scenario):
    assert data["POPACCU+"]["auc_pr"] == max(d["auc_pr"] for d in data.values())


def _check_fig16(data, scenario):
    # The paper sees 80% of triples below 0.1 or above 0.9; polarisation
    # is weaker at laptop scale (fewer provenances per item), so the
    # check asserts the direction, not the paper's magnitude.
    assert data["share_low"] + data["share_high"] > 0.3
    assert data["share_low"] > data["share_high"]


def _check_fig17(data, scenario):
    assert data["n_false_positives"] > 0
    assert data["n_false_negatives"] > 0
    assert "multiple_truths" in data["fn_categories"]


def _check_fig18(data, scenario):
    single = dict((e, a) for e, _n, a in data["1 extractor"])
    multi_key = next(k for k in data if k.startswith(">="))
    multi = dict((e, a) for e, _n, a in data[multi_key])
    shared = set(single) & set(multi)
    assert shared
    gaps = [multi[e] - single[e] for e in shared]
    assert sum(gaps) / len(gaps) > 0


def _check_fig19(data, scenario):
    assert data["same_type"]["n"] + data["cross_type"]["n"] == len(data["pairs"])
    assert data["cross_type"]["negative"] > 0


def _check_fig20(data, scenario):
    distribution = dict(data["distribution"])
    # Items with 0 or 1 truths dominate (paper: 95%).
    assert distribution["0"] + distribution["1"] > 0.8


def _check_fig21(data, scenario):
    assert set(data) == {"TXT1", "DOM2", "TBL1", "ANO"}
    # DOM2 reports extremes: most confidences at the edges.
    dom2 = dict(data["DOM2"]["coverage"])
    assert dom2[0.1] > 0.3


def _check_fig22(data, scenario):
    points = dict(data["points"])
    assert points[0.1] < 1.0  # even theta=0.1 already loses triples
    assert points[0.9] < points[0.1]


def _check_table1(data, scenario):
    counts = data["counts"]
    assert counts["#Triples (unique)"] > 1000
    skews = data["skews"]
    # The paper's hallmark: median far below mean (heavy head, long tail).
    assert skews["#Triples/entity"]["median"] < skews["#Triples/entity"]["mean"]


def _check_table2(data, scenario):
    assert len(data) == 12
    # The quality spread: careful extractors far above sloppy ones.
    assert data["TXT4"]["accuracy"] > data["DOM2"]["accuracy"] + 0.3
    # Volume ordering: DOM1 is the largest contributor, as in the paper.
    assert data["DOM1"]["records"] == max(d["records"] for d in data.values())


def _check_table3(data, scenario):
    assert (
        data["non_functional"]["predicates"] > data["functional"]["predicates"]
    )


#: Per-experiment sanity checks (signature: ``check(result.data, scenario)``).
#: These are the assertions the replaced ``bench_fig*.py`` scripts carried.
EXPERIMENT_CHECKS: dict[str, Callable] = {
    "fig3": _check_fig3,
    "fig4": _check_fig4,
    "fig5": _check_fig5,
    "fig6": _check_fig6,
    "fig7": _check_fig7,
    "fig9": _check_fig9,
    "fig10": _check_fig10,
    "fig11": _check_fig11,
    "fig12": _check_fig12,
    "fig13": _check_fig13,
    "fig14": _check_fig14,
    "fig15": _check_fig15,
    "fig16": _check_fig16,
    "fig17": _check_fig17,
    "fig18": _check_fig18,
    "fig19": _check_fig19,
    "fig20": _check_fig20,
    "fig21": _check_fig21,
    "fig22": _check_fig22,
    "table1": _check_table1,
    "table2": _check_table2,
    "table3": _check_table3,
}


def _experiment_body(experiment_id: str) -> Callable[[BenchContext], dict]:
    def run(ctx: BenchContext) -> dict:
        scenario = ctx.scenario()
        start = time.perf_counter()
        result = run_experiment(experiment_id, scenario)
        elapsed = time.perf_counter() - start
        (ctx.results_dir / f"{experiment_id}.txt").write_text(result.text + "\n")
        assert result.data
        check = EXPERIMENT_CHECKS.get(experiment_id)
        if check is not None:
            check(result.data, scenario)
        return {
            "experiment": experiment_id,
            "seconds": round(elapsed, 3),
            "checked": check is not None,
            "report": f"results/{experiment_id}.txt",
        }

    return run


for _experiment_id in experiment_ids():
    REGISTRY[_experiment_id] = BenchCase(
        name=_experiment_id,
        run=_experiment_body(_experiment_id),
        description=(
            f"regenerate paper artifact {_experiment_id} on the shared "
            f"scenario -> results/{_experiment_id}.txt"
        ),
        kind="experiment",
    )


# ---------------------------------------------------------------------------
# Extension case: the §5 future-direction ablations
# ---------------------------------------------------------------------------


@register(
    "extensions",
    "the §5 future-direction fusers against their baselines "
    "-> results/ext_{split,funct,hier,conf}.txt",
    kind="extension",
)
def extensions_case(ctx: BenchContext) -> dict:
    from repro.experiments.common import metrics_for
    from repro.fusion import FusionConfig, accu, popaccu
    from repro.fusion.extensions import (
        ConfidenceWeightedFuser,
        HierarchicalFuser,
        MultiTruthFuser,
        SplitQualityFuser,
    )
    from repro.report import format_table

    scenario = ctx.scenario()
    fusion_input = scenario.fusion_input()
    world = scenario.world
    report: dict = {}

    def record(name: str, rows, extra: str = "") -> None:
        text = format_table(
            ("model", "Dev.", "WDev.", "AUC-PR"), rows, title=name, float_digits=4
        )
        if extra:
            text += "\n" + extra
        (ctx.results_dir / f"{name}.txt").write_text(text + "\n")

    # Direction 1: factored extractor × source quality vs plain ACCU.
    split = SplitQualityFuser(FusionConfig()).fuse(fusion_input)
    base = accu().fuse(fusion_input)
    ours = metrics_for(split.probabilities, scenario.gold)
    baseline = metrics_for(base.probabilities, scenario.gold)
    quality = split.diagnostics["extractor_quality"]
    record(
        "ext_split",
        [("SPLITQ", *ours.row()), ("ACCU", *baseline.row())],
        "learned extractor quality: "
        + ", ".join(
            f"{k}={v:.2f}" for k, v in sorted(quality.items(), key=lambda kv: -kv[1])
        ),
    )
    # The factored model must at least rank the sloppy extractor below
    # the careful ones.
    assert quality["DOM2"] < quality["DOM3"]
    assert quality["DOM2"] < quality["TXT4"]
    report["ext_split"] = {"auc_pr": ours.auc_pr, "baseline_auc_pr": baseline.auc_pr}

    # Direction 3: multi-truth fusion vs single-truth POPACCU.
    multi = MultiTruthFuser(FusionConfig(max_rounds=3)).fuse(fusion_input)
    pop = popaccu().fuse(fusion_input)

    def non_functional_recall(probabilities):
        hits = total = 0
        for triple, probability in probabilities.items():
            predicate = world.schema.predicates.get(triple.predicate)
            if predicate is None or predicate.functional:
                continue
            if world.is_true_exact(triple):
                total += 1
                hits += probability > 0.5
        return hits / total if total else 0.0

    ours_recall = non_functional_recall(multi.probabilities)
    base_recall = non_functional_recall(pop.probabilities)
    functionality = multi.diagnostics["functionality"]
    record(
        "ext_funct",
        [
            ("MULTITRUTH", *metrics_for(multi.probabilities, scenario.gold).row()),
            ("POPACCU", *metrics_for(pop.probabilities, scenario.gold).row()),
        ],
        f"recall of true non-functional values at p>0.5 (vs world truth): "
        f"MULTITRUTH={ours_recall:.3f} POPACCU={base_recall:.3f}\n"
        "learned functionality (top 3): "
        + ", ".join(
            f"{pid.rsplit('/', 1)[-1]}={v:.2f}"
            for pid, v in sorted(functionality.items(), key=lambda kv: -kv[1])[:3]
        ),
    )
    assert ours_recall >= base_recall  # dropping single-truth must not lose truths
    report["ext_funct"] = {"recall": ours_recall, "baseline_recall": base_recall}

    # Direction 4: hierarchical value support vs plain ACCU (scored
    # against world truth — LCWA labels true-but-general values false,
    # the very artifact direction 4 fixes).
    hier = HierarchicalFuser(
        world.schema, world.hierarchy, FusionConfig(max_rounds=3)
    ).fuse(fusion_input)

    def hierarchical_recall(probabilities):
        hits = total = 0
        for triple, probability in probabilities.items():
            predicate = world.schema.predicates.get(triple.predicate)
            if predicate is None or not predicate.hierarchical:
                continue
            if world.is_true(triple):  # exact or true generalisation
                total += 1
                hits += probability > 0.5
        return hits / total if total else 0.0

    ours_recall = hierarchical_recall(hier.probabilities)
    base_recall = hierarchical_recall(base.probabilities)
    record(
        "ext_hier",
        [
            ("HIERACCU", *metrics_for(hier.probabilities, scenario.gold).row()),
            ("ACCU", *baseline.row()),
        ],
        f"recall of true (incl. generalised) hierarchical values at p>0.5: "
        f"HIERACCU={ours_recall:.3f} ACCU={base_recall:.3f}",
    )
    assert ours_recall >= base_recall
    report["ext_hier"] = {"recall": ours_recall, "baseline_recall": base_recall}

    # Direction 5: confidence-weighted votes vs plain ACCU.
    conf = ConfidenceWeightedFuser(FusionConfig()).fuse(fusion_input)
    conf_metrics = metrics_for(conf.probabilities, scenario.gold)
    record(
        "ext_conf",
        [("CONFACCU", *conf_metrics.row()), ("ACCU", *baseline.row())],
    )
    assert conf_metrics.auc_pr > baseline.auc_pr - 0.05
    report["ext_conf"] = {
        "auc_pr": conf_metrics.auc_pr,
        "baseline_auc_pr": baseline.auc_pr,
    }
    return report
