"""Golden regression: the ``small`` scenario's end-to-end headline numbers.

Codec/shuffle refactors must not silently drift results.  This test runs
the full pipeline (world → corpus → extraction → LCWA gold → POPACCU+)
at the ``small`` scale with seed 0 — the configuration every benchmark
uses — and freezes the headline metrics.

The run is parametrised over the two bitwise extraction-synthesis modes
(``serial`` scalar loop and ``batched`` vectorised kernels): both must
reproduce the frozen numbers exactly, and the record streams themselves
must be identical post-classification — the synthesis kernels' parity
contract observed end to end.

The whole dataflow is deterministic *and* hash-seed independent (the
fusion kernels sum in canonical order, every noisy draw derives from
``split_seed``), so these are exact expectations up to float formatting;
the 1e-12 tolerances only absorb cross-platform libm wobble.  If this
test fails after an intentional behaviour change, re-derive the numbers
with::

    PYTHONPATH=src python -c "
    from repro.datasets import small_config
    from repro.endtoend import run_end_to_end
    r = run_end_to_end(small_config(seed=0), method='popaccu+')
    print(r.metrics, r.scenario.extraction_stats())"

and say so in the commit message.
"""

import pytest

from repro.datasets import small_config
from repro.endtoend import run_end_to_end


@pytest.fixture(scope="module", params=["serial", "batched"])
def small_run(request):
    return run_end_to_end(
        small_config(seed=0), method="popaccu+", backend=request.param
    )


class TestGoldenSmall:
    def test_extraction_stats_frozen(self, small_run):
        stats = small_run.scenario.extraction_stats()
        assert stats["extracted_records"] == 36842
        assert stats["unique_triples"] == 15716
        assert stats["data_items"] == 4440
        assert stats["gold_coverage"] == pytest.approx(
            0.4724484601679817, abs=1e-12
        )
        assert stats["gold_accuracy"] == pytest.approx(
            0.1828956228956229, abs=1e-12
        )

    def test_fusion_shape_frozen(self, small_run):
        assert len(small_run.fusion.probabilities) == 15716
        assert len(small_run.fusion.unpredicted) == 0
        assert small_run.fusion.rounds == 5
        assert small_run.fusion.converged is False
        diag = small_run.fusion.diagnostics
        assert diag["n_items"] == 4440
        assert diag["n_provenances"] == 8382
        assert diag["n_claims"] == 31948
        assert diag["gold_initialized"] == 5225
        assert diag["n_active_final"] == 2187

    def test_headline_metrics_frozen(self, small_run):
        metrics = small_run.metrics
        assert metrics["n_labelled"] == 7425
        assert metrics["coverage"] == 1.0
        assert metrics["deviation"] == pytest.approx(
            0.01601675771816096, abs=1e-12
        )
        assert metrics["weighted_deviation"] == pytest.approx(
            0.005308203144721858, abs=1e-12
        )
        assert metrics["auc_pr"] == pytest.approx(0.7567209768249222, abs=1e-12)
        assert metrics["gold_accuracy"] == pytest.approx(
            0.8917171717171717, abs=1e-12
        )


class TestExtractionBackendAxis:
    def test_synthesis_mode_tagged_in_diagnostics(self, small_run):
        # One synthesis path: the tag is constant on every backend.
        assert small_run.diagnostics["extraction_synthesis"] == "batched"
        assert "synthesis_fallbacks" not in small_run.diagnostics

    def test_record_streams_identical_across_synthesis_modes(self, small_run):
        # Re-extract the same corpus under the *other* in-process spelling:
        # the classified record streams must match record for record.
        scenario = small_run.scenario
        other = "batched" if small_run.backend == "serial" else "serial"
        records = scenario.pipeline.run(scenario.corpus, backend=other)
        assert records == scenario.records
