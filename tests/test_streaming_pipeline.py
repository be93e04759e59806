"""The one pipeline, streamed: streamed == materialised, mapped == memory.

The parity plan (docs/SCALING.md): each streamed backend must match the
materialised run of its *own* fusion backend bitwise — streamed
``serial`` and ``parallel`` equal materialised ``serial`` (the parallel
fusion backend is bitwise vs serial by contract), streamed ``batched``
equals the materialised run under vectorized fusion, streamed ``hybrid``
equals materialised ``hybrid`` — and the tolerance backends stay within the
1e-9 contract of serial.  Orthogonally, running the same streamed
backend over memory-mapped columns (``cache_dir`` set) must be
bitwise-identical to the in-memory columns: the mmap layer is a storage
format, never a numeric change.  All asserted here at ``tiny`` before
any ``web``-scale number is trusted (the bench case re-asserts the
contracts at scale).

The two references every class compares against — the materialised
``serial`` run and the streamed in-memory ``batched`` run — are
module-scoped fixtures: results are read-only, so one run serves all.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import endtoend
from repro.datasets import build_scenario, tiny_config
from repro.datasets import scenario as scenario_module
from repro.endtoend import EndToEndResult, run_end_to_end, run_streaming_pipeline
from repro.eval import stats
from repro.experiments import run_experiment
from repro.extract import pipeline as extract_pipeline
from repro.extract.records import RecordColumns, RecordTables
from repro.fusion import FusionConfig, observations
from repro.fusion.base import ConfigError
from repro.fusion.provenance import Granularity
from repro.mapreduce.executors import ParallelExecutor, SerialExecutor, ShardedMapJob
from tests.oracle.columns import assert_columns_equal

SEED = 7
TOLERANCE = 1e-9


def _stream(backend, **kwargs):
    kwargs.setdefault("chunk_pages", 16)
    kwargs.setdefault("copy_window", None)  # match the materialised corpus
    return run_end_to_end(tiny_config(seed=SEED), backend=backend, **kwargs)


@pytest.fixture(scope="module")
def serial_record():
    return run_end_to_end(tiny_config(seed=SEED), backend="serial")


@pytest.fixture(scope="module")
def batched_stream():
    return _stream("batched")


def _assert_bitwise(streaming, record, exact_metrics=True):
    assert streaming.fusion.probabilities == record.fusion.probabilities
    assert streaming.fusion.accuracies == record.fusion.accuracies
    if exact_metrics:
        assert streaming.metrics == record.metrics
    else:
        # The metric reductions iterate the probabilities dict in
        # insertion order, which differs between Stage III over bare
        # columns (canonical rows) and materialised ``serial`` (record
        # arrival) — identical values, last-ulp summation drift allowed.
        assert streaming.metrics == pytest.approx(record.metrics, abs=1e-12)


def _assert_close(result, reference):
    probabilities = reference.fusion.probabilities
    assert result.fusion.probabilities.keys() == probabilities.keys()
    for triple, probability in result.fusion.probabilities.items():
        assert abs(probability - probabilities[triple]) <= TOLERANCE


class TestStreamingEqualsRecordPath:
    def test_batched_matches_vectorized_record_path(self, batched_stream):
        record = run_end_to_end(
            tiny_config(seed=SEED),
            backend="batched",
            fusion_config=FusionConfig(seed=SEED, backend="vectorized"),
        )
        _assert_bitwise(batched_stream, record)
        assert batched_stream.n_records == record.n_records
        assert batched_stream.n_pages == record.n_pages

    def test_batched_within_tolerance_of_serial(self, batched_stream, serial_record):
        _assert_close(batched_stream, serial_record)

    def test_serial_matches_serial_record_path(self, serial_record):
        """Scalar in-process fusion straight over the accumulated columns
        (legal out of core: no fusion mode reads anything else)."""
        streaming = _stream("serial")
        _assert_bitwise(streaming, serial_record, exact_metrics=False)
        assert streaming.fusion.unpredicted == serial_record.fusion.unpredicted
        assert streaming.fusion.rounds == serial_record.fusion.rounds
        diagnostics = streaming.diagnostics
        assert (diagnostics["backend_used"], diagnostics["parity"]) == (
            "serial",
            "bitwise",
        )
        assert diagnostics["extraction_synthesis"] == "batched"
        assert "n_workers" not in diagnostics

    def test_serial_fusion_config_on_a_batched_stream(self):
        """``fusion_config`` picks the fusion mode independently of the
        extraction ``backend``: batched extraction + scalar fusion is the
        streamed spelling of materialised ``batched``."""
        streaming = _stream(
            "batched", fusion_config=FusionConfig(seed=SEED, backend="serial")
        )
        record = run_end_to_end(tiny_config(seed=SEED), backend="batched")
        _assert_bitwise(streaming, record, exact_metrics=False)
        assert streaming.diagnostics["backend_used"] == "serial"

    @pytest.mark.parallel_backend
    def test_hybrid_matches_record_hybrid_bitwise(self):
        streaming = _stream("hybrid", n_workers=2)
        record = run_end_to_end(
            tiny_config(seed=SEED), backend="hybrid", n_workers=2
        )
        # One column-native Stage III: both finalise in ``cols.triples``
        # order, so even the insertion-order-sensitive metrics are exact.
        _assert_bitwise(streaming, record, exact_metrics=True)


class TestMappedEqualsMemory:
    def test_batched_mapped_is_bitwise(self, batched_stream, tmp_path):
        mapped = _stream("batched", cache_dir=tmp_path)
        assert mapped.diagnostics["column_store"] == "mapped"
        assert batched_stream.diagnostics["column_store"] == "memory"
        _assert_bitwise(mapped, batched_stream)

    @pytest.mark.parallel_backend
    def test_pooled_mapped_is_bitwise(self, tmp_path):
        memory = _stream("hybrid", n_workers=2)
        mapped = _stream("hybrid", n_workers=2, cache_dir=tmp_path)
        assert mapped.diagnostics["column_store"] == "mapped"
        _assert_bitwise(mapped, memory)

    def test_damaged_store_is_republished_and_mapped(self, batched_stream, tmp_path):
        """A truncated ``.npy`` is no intact entry: the next run
        republishes the store and maps it, instead of failing to map it."""
        _stream("batched", cache_dir=tmp_path)
        (store,) = tmp_path.glob("columns-*")
        npy = store / "row_ptr.npy"
        npy.write_bytes(npy.read_bytes()[:-8])
        mapped = _stream("batched", cache_dir=tmp_path)
        assert mapped.diagnostics["column_store"] == "mapped"
        assert list(tmp_path.glob("columns-*")) == [store]
        _assert_bitwise(mapped, batched_stream)

    def test_unwritable_cache_degrades_to_memory(
        self, batched_stream, serial_record, tmp_path
    ):
        blocker = tmp_path / "blocked"
        blocker.write_text("")  # a *file*: mkdir under it raises OSError
        degraded = _stream("batched", cache_dir=blocker / "cache")
        assert degraded.diagnostics["column_store"] == "memory (persist fallback)"
        _assert_bitwise(degraded, batched_stream)
        # The materialised run takes the same policy for its scenario artifact.
        materialised = run_end_to_end(
            tiny_config(seed=SEED), backend="serial", cache_dir=blocker / "cache"
        )
        assert materialised.diagnostics["scenario_cache"] == "miss (publish fallback)"
        _assert_bitwise(materialised, serial_record)


#: Reads every numeric column of a mapped streamed result after the run
#: returns, against the same run over in-memory columns.  In its own
#: process: a column unmapped under the result would kill the reader.
_READ_MAPPED_SCRIPT = """
import tempfile

import numpy as np

from repro.datasets import tiny_config
from repro.endtoend import run_end_to_end
from repro.fusion.matrix import NUMERIC_COLUMNS


def run(cache_dir=None):
    result = run_end_to_end(
        tiny_config(0), "popaccu+", backend="batched", chunk_pages=16, cache_dir=cache_dir
    )
    cols = result.fusion.columns.cols
    return result.diagnostics["column_store"], {
        **{name: np.array(getattr(cols, name)) for name in NUMERIC_COLUMNS},
        "canonical_rank": np.array(cols.canonical_rank()),
        "item_claim_counts": cols.item_claim_counts(),
        "prov_row_counts": cols.prov_row_counts(),
    }


with tempfile.TemporaryDirectory() as cache_dir:
    store, mapped = run(cache_dir)
    assert store == "mapped", store
    _, memory = run()
    for name, column in memory.items():
        assert np.array_equal(mapped[name], column), name
        print(name, int(column.sum()))
"""


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestAMappedResultOwnsItsColumns:
    """A streamed run with a cache directory returns a result that reads
    its mapped columns; the maps close with their last reader, or before
    the error of a run that raises after publishing them."""

    def test_every_column_reads_after_the_run_returns(self):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", _READ_MAPPED_SCRIPT],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
        assert len(proc.stdout.splitlines()) == 9

    @pytest.mark.skipif(sys.platform != "linux", reason="/proc/self/fd is Linux-only")
    def test_the_maps_close_when_the_result_is_dropped(self, tmp_path):
        before = _open_fds()
        result = _stream("batched", cache_dir=tmp_path)
        assert result.diagnostics["column_store"] == "mapped"
        assert _open_fds() > before
        del result
        assert _open_fds() == before

    @pytest.mark.skipif(sys.platform != "linux", reason="/proc/self/fd is Linux-only")
    def test_a_run_that_raises_after_persisting_closes_the_maps(self, tmp_path, monkeypatch):
        def failing(cols):
            raise RuntimeError("fusion input failed")

        monkeypatch.setattr(observations.FusionInput, "from_columns", staticmethod(failing))
        before = _open_fds()
        with pytest.raises(RuntimeError, match="fusion input failed"):
            _stream("batched", cache_dir=tmp_path)
        assert list(tmp_path.glob("columns-*"))  # the store was published
        assert _open_fds() == before


class TestStreamingDeterminism:
    def test_run_to_run(self, batched_stream):
        _assert_bitwise(_stream("batched"), batched_stream)

    def test_chunk_size_is_invisible(self):
        coarse = _stream("batched", chunk_pages=64)
        fine = _stream("batched", chunk_pages=7)
        _assert_bitwise(coarse, fine)
        assert coarse.n_records == fine.n_records
        assert coarse.diagnostics["n_chunks"] < fine.diagnostics["n_chunks"]


#: The extraction window the one-fold spies patch in, so ``tiny``'s 80
#: pages make many window tables.
WINDOW = 7


def _spy_recoding(monkeypatch) -> dict[str, list[int]]:
    """The row count of every table the record store re-codes, window
    tables and a chunk's merged columns apart."""
    monkeypatch.setattr(extract_pipeline, "_WINDOW_PAGES", WINDOW)
    seen = {"window": [], "chunk": []}
    add_table = RecordTables.add_table

    def counting(self, table):
        seen["chunk" if isinstance(table, RecordColumns) else "window"].append(len(table[2]))
        add_table(self, table)

    monkeypatch.setattr(RecordTables, "add_table", counting)
    return seen


def _assert_reads_recode_nothing(scenario, seen) -> None:
    """Every reader of a scenario's records, and its fusion input at any
    granularity, reads the one store: nothing is re-coded."""
    seen["window"].clear()
    records = scenario.records
    fusion_input = scenario.fusion_input()
    assert fusion_input.records is records
    assert len(records.columns.codes) == len(records)
    assert records.triple_support
    for experiment_id in ("fig5", "table2"):
        run_experiment(experiment_id, scenario)
    stats.coverage_by_confidence_threshold(records)
    stats.confidence_accuracy_curve(records, scenario.gold)
    stats.triple_sets(records, 1)
    for granularity in (Granularity.EXTRACTOR_URL, Granularity.EXTRACTOR_SITE):
        assert fusion_input.claims(granularity).n_claims > 0
    assert seen == {"window": [], "chunk": []}


class TestOneBody:
    """The materialised run is the single-chunk case of the streamed one."""

    def test_one_result_type(self, serial_record):
        streamed = run_streaming_pipeline(
            tiny_config(seed=SEED), backend="batched", chunk_pages=32
        )
        assert type(streamed) is type(serial_record) is EndToEndResult
        assert streamed.scenario is None
        scenario = serial_record.scenario
        assert serial_record.n_pages == len(scenario.corpus.pages) == 80
        assert serial_record.n_records == len(scenario.records)
        assert serial_record.diagnostics["n_chunks"] == 1
        assert list(serial_record.timings) == [
            "setup", "extraction", "labeling", "fusion", "total",
        ]
        assert serial_record.diagnostics["peak_rss_mb"] > 0

    @pytest.mark.parametrize(
        "backend", ["batched", pytest.param("hybrid", marks=pytest.mark.parallel_backend)]
    )
    @pytest.mark.parametrize("chunk_pages", [None, 16])
    def test_the_run_recodes_each_record_table_once(self, backend, chunk_pages, monkeypatch):
        """One fold: each window table is re-coded exactly once, into the
        run's one store, and no chunk's columns are re-coded — streamed
        or not.  A materialised run keeps the store as its records, read
        by every reader and by its fusion input with no second fold."""
        seen = _spy_recoding(monkeypatch)
        monkeypatch.setattr(scenario_module, "label_gold", pytest.fail)
        assert endtoend.label_gold is scenario_module.label_gold_texts
        result = run_end_to_end(
            tiny_config(seed=SEED), backend=backend, n_workers=2, chunk_pages=chunk_pages
        )
        chunks = [16] * 5 if chunk_pages else [80]
        assert result.diagnostics["n_chunks"] == len(chunks)
        assert len(seen["window"]) == sum(-(-pages // WINDOW) for pages in chunks)
        assert sum(seen["window"]) == result.n_records
        assert seen["chunk"] == []
        if chunk_pages is None:
            _assert_reads_recode_nothing(result.scenario, seen)

    def test_build_scenario_recodes_each_record_table_once(self, monkeypatch):
        """``build_scenario`` is the same body: one fold, labelled off the
        fusion input, whose store is the scenario's records."""
        seen = _spy_recoding(monkeypatch)
        monkeypatch.setattr(scenario_module, "label_gold", pytest.fail)
        scenario = build_scenario(tiny_config(seed=SEED), use_cache=False)
        assert len(seen["window"]) == -(-80 // WINDOW)
        assert sum(seen["window"]) == len(scenario.records) > 0
        assert seen["chunk"] == []
        _assert_reads_recode_nothing(scenario, seen)

    @pytest.mark.parametrize(
        "backend",
        ["serial", pytest.param("hybrid", marks=pytest.mark.parallel_backend)],
    )
    def test_build_scenario_is_the_pipelines_scenario(self, backend):
        config = tiny_config(seed=SEED)
        built = build_scenario(config, use_cache=False, backend=backend)
        ran = run_end_to_end(config, backend=backend).scenario
        assert list(built.records) == list(ran.records)
        assert list(built.gold.items()) == list(ran.gold.items())
        built_input, ran_input = built.fusion_input(), ran.fusion_input()
        assert np.array_equal(built_input.arrival_rows(), ran_input.arrival_rows())
        for granularity in (Granularity.EXTRACTOR_URL, Granularity.EXTRACTOR_SITE):
            assert_columns_equal(
                built_input.claims(granularity), ran_input.claims(granularity)
            )

    @pytest.mark.parametrize("chunk_pages", [None, 16])
    def test_the_row_layout_is_extractions_last_step(self, chunk_pages, monkeypatch):
        """``labeling`` clocks LCWA only: the fusion input lays out its
        rows (once per run) inside the ``extraction`` stage, before
        labeling starts.  A materialised run's scenario holds that input:
        its texts are the ones labelled, and a granularity sweep over it
        lays out nothing and reads one object per granularity."""
        events, layouts = [], []
        timed_stage, lay_out = endtoend.timed_stage, observations._lay_out

        def stage(timings, name):
            events.append(name)
            return timed_stage(timings, name)

        def laying_out(cols):
            events.append("lay_out")
            layouts.append(lay_out(cols))
            return layouts[-1]

        monkeypatch.setattr(endtoend, "timed_stage", stage)
        monkeypatch.setattr(observations, "_lay_out", laying_out)
        result = run_end_to_end(tiny_config(seed=SEED), chunk_pages=chunk_pages)
        assert events.count("lay_out") == 1
        assert events.index("extraction") < events.index("lay_out") < events.index("labeling")
        if chunk_pages is None:
            fusion_input = result.scenario.fusion_input()
            assert fusion_input.unique_texts() is layouts[0].sorted_texts
            assert set(result.scenario.gold) <= set(layouts[0].sorted_texts)
            for granularity in (Granularity.EXTRACTOR_URL, Granularity.EXTRACTOR_SITE):
                cols = fusion_input.claims(granularity)
                assert fusion_input.claims(granularity) is cols
                assert cols.texts is layouts[0].texts
            assert events.count("lay_out") == 1

    @pytest.mark.parametrize("chunk_pages", [None, 16])
    def test_the_fuser_is_made_once(self, chunk_pages, monkeypatch):
        calls = []
        make_fuser = endtoend.make_fuser

        def counting(method, config, gold_labels=None):
            calls.append(gold_labels)
            return make_fuser(method, config, gold_labels)

        monkeypatch.setattr(endtoend, "make_fuser", counting)
        result = run_end_to_end(tiny_config(seed=SEED), chunk_pages=chunk_pages)
        # ... after labeling, from the real gold labels (no gold-less probe).
        assert len(calls) == 1 and calls[0] and result.metrics["n_labelled"] > 0

    def test_streamed_run_leaves_a_callers_executor_open(self, batched_stream):
        class Recording(SerialExecutor):
            closed = False

            def close(self):
                self.closed = True
                super().close()

        executor = Recording()
        try:
            result = _stream("batched", executor=executor)
            assert not executor.closed
        finally:
            executor.close()
        _assert_bitwise(result, batched_stream)


class TestStreamingSurface:
    def test_unknown_method_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown fusion method"):
            run_streaming_pipeline(tiny_config(seed=SEED), method="nope")

    @pytest.mark.parametrize(
        "chunk_pages, first_step", [(None, "setup_worldgen"), (16, "stream_corpus")]
    )
    def test_pooled_backend_rejects_an_in_process_executor_before_any_work(
        self, chunk_pages, first_step, monkeypatch
    ):
        def spy(*args, **kwargs):
            pytest.fail(f"{first_step} ran before the executor was checked")

        monkeypatch.setattr(endtoend, first_step, spy)
        with pytest.raises(ConfigError, match="SerialExecutor"):
            run_end_to_end(
                tiny_config(seed=0),
                backend="hybrid",
                executor=SerialExecutor(),
                chunk_pages=chunk_pages,
            )

    def test_diagnostics_and_timings(self, batched_stream):
        result = batched_stream
        assert list(result.timings) == [
            "setup", "extraction", "labeling", "matrix", "fusion", "total",
        ]
        diagnostics = result.diagnostics
        assert diagnostics["peak_rss_mb"] > 0
        assert diagnostics["chunk_pages"] == 16
        assert diagnostics["n_chunks"] == 5  # 80 tiny pages / 16
        assert diagnostics["n_pages"] == result.n_pages == 80
        assert diagnostics["n_records"] == result.n_records
        assert diagnostics["extraction_synthesis"] == "batched"
        assert result.backend == "batched"

    @pytest.mark.parallel_backend
    def test_pooled_diagnostics_report_state_bytes(self):
        result = _stream("hybrid", n_workers=2)
        assert result.diagnostics["state_bytes_shipped"] > 0
        assert result.diagnostics["round_state"] == "shared-memory"


class TestTriplesStayText:
    """From the emitter to Stage III a triple is its canonical text: the
    claim layout slices it, LCWA probes it, fusion and the headline
    metrics read row codes.  Only a result view parses it."""

    @pytest.mark.parametrize("chunk_pages", [None, 16], ids=["materialised", "streamed"])
    def test_no_triple_is_parsed_until_a_result_view_is_read(self, monkeypatch, chunk_pages):
        from repro.kb import triples as triples_module
        from repro.kb import values as values_module
        from repro.kb.triples import Triple

        calls = []

        def counted(name, real):
            def spy(text):
                calls.append(name)
                return real(text)

            return spy

        monkeypatch.setattr(
            Triple, "from_canonical", staticmethod(counted("from_canonical", Triple.from_canonical))
        )
        for module in (triples_module, values_module):
            monkeypatch.setattr(
                module, "parse_value", counted("parse_value", module.parse_value)
            )
        result = run_end_to_end(
            tiny_config(seed=SEED), "popaccu+", backend="batched", chunk_pages=chunk_pages
        )
        assert result.metrics["n_labelled"] > 0
        assert calls == []
        assert len(result.fusion.probabilities) > 0  # the view decodes its rows
        assert "from_canonical" in calls and "parse_value" in calls


def _repro_types(objects) -> list[str]:
    return sorted(
        {type(o).__qualname__ for o in objects if type(o).__module__.split(".")[0] == "repro"}
    )


def _repro_garbage(**kwargs) -> list[str]:
    """The ``repro`` types of the objects a ``tiny`` run leaves in
    reference cycles, saved by ``gc.DEBUG_SAVEALL`` instead of freed."""
    gc.collect()
    flags, start = gc.get_debug(), len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run_end_to_end(tiny_config(seed=SEED), **kwargs)
        gc.collect()
        assert result.n_records > 0
        return _repro_types(gc.garbage[start:])
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]
        gc.collect()  # a planted cycle must not reach a later fork


def _worker_garbage_probe(items):
    """A shard body reporting, per item, whether the worker collects and
    which ``repro`` types its heap holds in reference cycles."""
    enabled = gc.isenabled()
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    return [(enabled, _repro_types(gc.garbage))] * len(items)


#: The runs the collector policy relies on: streamed and materialised
#: in-process, and streamed on the pool.
_RUNS = {
    "streamed": dict(backend="batched", chunk_pages=16),
    "materialised": dict(backend="batched"),
    "pooled-streamed": dict(backend="hybrid", n_workers=2, chunk_pages=16),
}


class TestNoReproGarbage:
    """A run frees its records, pages and columns by reference counting:
    no ``repro`` object is left for the cyclic collector.  This is what
    makes the collector policy safe: the parent pauses it for the
    extraction stage, and a pool worker never runs it."""

    @pytest.mark.parametrize(
        "run",
        [
            "streamed",
            "materialised",
            pytest.param("pooled-streamed", marks=pytest.mark.parallel_backend),
        ],
    )
    def test_a_run_leaves_no_repro_object_in_a_cycle(self, run):
        assert _repro_garbage(**_RUNS[run]) == []

    def test_a_cycle_through_a_page_is_caught(self, monkeypatch):
        stream_corpus = endtoend.stream_corpus

        def planting(*args):
            for chunk in stream_corpus(*args):
                cycle = [chunk[0]]
                cycle.append(cycle)
                yield chunk

        monkeypatch.setattr(endtoend, "stream_corpus", planting)
        assert "WebPage" in _repro_garbage(**_RUNS["streamed"])

    @pytest.mark.parallel_backend
    def test_pool_workers_never_collect_and_hold_no_repro_cycle(self):
        gc.collect()  # the workers fork from this heap
        with ParallelExecutor(max_workers=2) as executor:
            result = _stream("hybrid", executor=executor)
            assert result.n_records > 0
            probe = ShardedMapJob(name="gc.probe", map_shard=_worker_garbage_probe)
            reports = executor.run_map(range(8), probe)
        assert reports == [(False, [])] * 8

    def test_the_parent_pauses_the_collector_for_extraction_only(self, monkeypatch):
        seen: dict[str, set[bool]] = {"extraction": set(), "labeling": set()}
        stream_corpus, label_gold = endtoend.stream_corpus, endtoend.label_gold

        def spying(*args):
            for chunk in stream_corpus(*args):
                seen["extraction"].add(gc.isenabled())
                yield chunk

        def labelling(*args):
            seen["labeling"].add(gc.isenabled())
            return label_gold(*args)

        monkeypatch.setattr(endtoend, "stream_corpus", spying)
        monkeypatch.setattr(endtoend, "label_gold", labelling)
        assert gc.isenabled()
        _stream("batched")
        assert seen == {"extraction": {False}, "labeling": {True}}
        assert gc.isenabled()

    @pytest.mark.parametrize("chunk_pages", [None, 16])
    def test_a_run_that_raises_mid_extraction_restores_the_collector(
        self, chunk_pages, monkeypatch
    ):
        calls = []

        def failing(*args):
            calls.append(gc.isenabled())
            raise RuntimeError("extraction failed")

        monkeypatch.setattr(extract_pipeline, "classify_table", failing)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="extraction failed"):
            run_end_to_end(tiny_config(seed=SEED), backend="batched", chunk_pages=chunk_pages)
        assert calls == [False]
        assert gc.isenabled()
