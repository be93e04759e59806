"""The out-of-core pipeline: streaming == record path, mapped == memory.

The parity plan (docs/SCALING.md): each streaming backend must match the
record-path run of its *own* fusion backend bitwise — streaming
``serial`` and ``parallel`` equal record-path ``serial`` (the parallel
fusion backend is bitwise vs serial by contract), streaming ``batched``
equals the record path run under vectorized fusion, streaming ``hybrid``
equals record-path ``hybrid`` — and the tolerance backends stay within the
1e-9 contract of serial.  Orthogonally, running the same streaming
backend over memory-mapped columns (``cache_dir`` set) must be
bitwise-identical to the in-memory columns: the mmap layer is a storage
format, never a numeric change.  All asserted here at ``tiny`` before
any ``web``-scale number is trusted (the bench case re-asserts the
contracts at scale).
"""

from __future__ import annotations

import pytest

from repro.datasets import tiny_config
from repro.endtoend import run_end_to_end, run_streaming_pipeline
from repro.fusion import FusionConfig
from repro.fusion.base import ConfigError
from repro.fusion.observations import ClaimMatrix

SEED = 7
TOLERANCE = 1e-9


def _stream(backend, **kwargs):
    kwargs.setdefault("chunk_pages", 16)
    kwargs.setdefault("copy_window", None)  # match the materialised corpus
    return run_streaming_pipeline(tiny_config(seed=SEED), backend=backend, **kwargs)


def _assert_bitwise(streaming, record, exact_metrics=True):
    assert streaming.fusion.probabilities == record.fusion.probabilities
    assert streaming.fusion.accuracies == record.fusion.accuracies
    if exact_metrics:
        assert streaming.metrics == record.metrics
    else:
        # The metric reductions iterate the probabilities dict in
        # insertion order, which differs between Stage III over bare
        # columns (canonical rows) and record-path ``serial`` (record
        # arrival) — identical values, last-ulp summation drift allowed.
        assert streaming.metrics == pytest.approx(record.metrics, abs=1e-12)


def _assert_close(result, reference):
    probabilities = reference.fusion.probabilities
    assert result.fusion.probabilities.keys() == probabilities.keys()
    for triple, probability in result.fusion.probabilities.items():
        assert abs(probability - probabilities[triple]) <= TOLERANCE


class TestStreamingEqualsRecordPath:
    def test_batched_matches_vectorized_record_path(self):
        streaming = _stream("batched")
        record = run_end_to_end(
            tiny_config(seed=SEED),
            backend="batched",
            fusion_config=FusionConfig(seed=SEED, backend="vectorized"),
        )
        _assert_bitwise(streaming, record)
        assert streaming.n_records == len(record.scenario.records)
        assert streaming.n_pages == len(record.scenario.corpus.pages)

    def test_batched_within_tolerance_of_serial(self):
        streaming = _stream("batched")
        serial = run_end_to_end(tiny_config(seed=SEED), backend="serial")
        _assert_close(streaming, serial)

    def test_serial_matches_serial_record_path(self, monkeypatch):
        """Scalar in-process fusion straight over the accumulated columns:
        legal out of core because it never builds a dict claim view."""
        monkeypatch.setattr(ClaimMatrix, "_dict_views", pytest.fail)
        streaming = _stream("serial")
        serial = run_end_to_end(tiny_config(seed=SEED), backend="serial")
        _assert_bitwise(streaming, serial, exact_metrics=False)
        assert streaming.fusion.unpredicted == serial.fusion.unpredicted
        assert streaming.fusion.rounds == serial.fusion.rounds
        diagnostics = streaming.diagnostics
        assert (diagnostics["backend_used"], diagnostics["parity"]) == (
            "serial",
            "bitwise",
        )
        assert diagnostics["extraction_synthesis"] == "scalar"
        assert "n_workers" not in diagnostics

    def test_serial_fusion_config_on_a_batched_stream(self):
        """``fusion_config`` picks the fusion mode independently of the
        extraction ``backend``: batched extraction + scalar fusion is the
        streaming spelling of record-path ``batched``."""
        streaming = _stream(
            "batched", fusion_config=FusionConfig(seed=SEED, backend="serial")
        )
        record = run_end_to_end(tiny_config(seed=SEED), backend="batched")
        _assert_bitwise(streaming, record, exact_metrics=False)
        assert streaming.diagnostics["backend_used"] == "serial"

    @pytest.mark.parallel_backend
    def test_parallel_matches_serial_bitwise(self):
        streaming = _stream("parallel", n_workers=2)
        serial = run_end_to_end(tiny_config(seed=SEED), backend="serial")
        _assert_bitwise(streaming, serial, exact_metrics=False)

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
    def test_batched_mapped_is_bitwise(self, tmp_path):
        memory = _stream("batched")
        mapped = _stream("batched", cache_dir=tmp_path)
        assert mapped.diagnostics["column_store"] == "mapped"
        assert memory.diagnostics["column_store"] == "memory"
        _assert_bitwise(mapped, memory)

    @pytest.mark.parallel_backend
    @pytest.mark.parametrize("backend", ["parallel", "hybrid"])
    def test_pooled_mapped_is_bitwise(self, backend, tmp_path):
        memory = _stream(backend, n_workers=2)
        mapped = _stream(backend, n_workers=2, cache_dir=tmp_path)
        assert mapped.diagnostics["column_store"] == "mapped"
        _assert_bitwise(mapped, memory)

    def test_unwritable_cache_degrades_to_memory(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("")  # a *file*: mkdir under it raises OSError
        memory = _stream("batched")
        degraded = _stream("batched", cache_dir=blocker / "cache")
        assert degraded.diagnostics["column_store"] == "memory (persist fallback)"
        _assert_bitwise(degraded, memory)


class TestStreamingDeterminism:
    def test_run_to_run(self):
        first = _stream("batched")
        second = _stream("batched")
        _assert_bitwise(first, second)

    def test_chunk_size_is_invisible(self):
        coarse = _stream("batched", chunk_pages=64)
        fine = _stream("batched", chunk_pages=7)
        _assert_bitwise(coarse, fine)
        assert coarse.n_records == fine.n_records
        assert coarse.diagnostics["n_chunks"] < fine.diagnostics["n_chunks"]


class TestStreamingSurface:
    def test_unknown_method_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown fusion method"):
            run_streaming_pipeline(tiny_config(seed=SEED), method="nope")

    def test_diagnostics_and_timings(self):
        result = _stream("batched", chunk_pages=16)
        for key in ("setup", "extraction", "labeling", "matrix", "fusion", "total"):
            assert key in result.timings
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
