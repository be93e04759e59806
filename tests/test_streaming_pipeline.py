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

import pytest

from repro import endtoend
from repro.datasets import scenario as scenario_module
from repro.datasets import tiny_config
from repro.endtoend import EndToEndResult, run_end_to_end, run_streaming_pipeline
from repro.fusion import FusionConfig, observations
from repro.fusion.base import ConfigError
from repro.fusion.observations import ClaimAccumulator
from repro.fusion.provenance import Granularity
from repro.mapreduce.executors import SerialExecutor

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
    def test_parallel_matches_serial_bitwise(self, serial_record):
        streaming = _stream("parallel", n_workers=2)
        _assert_bitwise(streaming, serial_record, exact_metrics=False)

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
    @pytest.mark.parametrize("backend", ["parallel", "hybrid"])
    def test_pooled_mapped_is_bitwise(self, backend, tmp_path):
        memory = _stream(backend, n_workers=2)
        mapped = _stream(backend, n_workers=2, cache_dir=tmp_path)
        assert mapped.diagnostics["column_store"] == "mapped"
        _assert_bitwise(mapped, memory)

    def test_unwritable_cache_degrades_to_memory(self, batched_stream, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("")  # a *file*: mkdir under it raises OSError
        degraded = _stream("batched", cache_dir=blocker / "cache")
        assert degraded.diagnostics["column_store"] == "memory (persist fallback)"
        _assert_bitwise(degraded, batched_stream)


class TestStreamingDeterminism:
    def test_run_to_run(self, batched_stream):
        _assert_bitwise(_stream("batched"), batched_stream)

    def test_chunk_size_is_invisible(self):
        coarse = _stream("batched", chunk_pages=64)
        fine = _stream("batched", chunk_pages=7)
        _assert_bitwise(coarse, fine)
        assert coarse.n_records == fine.n_records
        assert coarse.diagnostics["n_chunks"] < fine.diagnostics["n_chunks"]


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

    def test_materialised_run_interns_each_record_once(self, monkeypatch):
        """The records are folded into the accumulator as they arrive and
        the scenario's fusion input shares it: no second walk for the gold
        labels, no third for the claim matrix."""
        seen = []
        add_records = ClaimAccumulator.add_records

        def counting(self, records):
            seen.append(len(records))
            add_records(self, records)

        monkeypatch.setattr(ClaimAccumulator, "add_records", counting)
        monkeypatch.setattr(observations, "_accumulate", pytest.fail)
        monkeypatch.setattr(scenario_module, "label_gold", pytest.fail)
        assert endtoend.label_gold is scenario_module.label_gold_triples
        result = run_end_to_end(tiny_config(seed=SEED), backend="batched")
        assert sum(seen) == result.n_records == len(result.scenario.records)
        # A granularity the run did not fuse at (POPACCU+ picks its own)
        # still comes off the shared accumulator.
        fusion_input = result.scenario.fusion_input()
        assert fusion_input.claims(Granularity.EXTRACTOR_URL).n_claims() > 0
        assert sum(seen) == result.n_records

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
        assert result.diagnostics["round_state"] in (
            "shared-memory",
            "inline (shm fallback)",
        )
