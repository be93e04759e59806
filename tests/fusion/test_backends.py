"""Backend regression tests: serial / vectorized fusion.

The contract, tested on real seeded scenarios:

- ``vectorized`` matches ``serial`` to 1e-9 (summation order differs),
  sampled or not — sampling is a claim mask both kernels read;
- every mode needs a posterior with the form it scores with
  (``exact_round`` for ``serial`` and the θ-rescue, ``batch_round`` for
  the batched modes): a closure posterior is a ``ConfigError`` before any
  work, never a silent swap of kernel.  (The pooled ``hybrid`` mode's worker-count ×
  start-method matrix is tests/fusion/test_columnar_shuffle.py.)
"""

import pytest

from repro.errors import ConfigError
from repro.fusion import (
    FusionConfig,
    accu,
    popaccu,
    popaccu_plus,
    popaccu_plus_unsup,
    vote,
)
from repro.fusion.popaccu import PopAccuKernel
from repro.fusion.runner import run_bayesian_fusion
from repro.mapreduce.executors import FUSION_MODES


def assert_close(result_a, result_b, tol=1e-9):
    assert set(result_a.probabilities) == set(result_b.probabilities)
    for triple, probability in result_a.probabilities.items():
        assert result_b.probabilities[triple] == pytest.approx(
            probability, abs=tol
        )
    assert set(result_a.accuracies) == set(result_b.accuracies)
    for prov, accuracy in result_a.accuracies.items():
        assert result_b.accuracies[prov] == pytest.approx(accuracy, abs=tol)
    assert result_a.unpredicted == result_b.unpredicted
    assert result_a.rounds == result_b.rounds
    assert result_a.converged == result_b.converged


class TestVectorizedParity:
    @pytest.mark.parametrize(
        "preset", [vote, accu, popaccu, popaccu_plus_unsup], ids=lambda f: f.__name__
    )
    def test_matches_serial(self, micro_scenario, preset):
        fusion_input = micro_scenario.fusion_input()
        serial = preset(backend="serial").fuse(fusion_input)
        vectorized = preset(backend="vectorized").fuse(fusion_input)
        assert vectorized.diagnostics["backend_used"] == "vectorized"
        assert_close(serial, vectorized)

    def test_popaccu_plus_with_gold_matches_serial(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        serial = popaccu_plus(micro_scenario.gold, backend="serial").fuse(
            fusion_input
        )
        vectorized = popaccu_plus(micro_scenario.gold, backend="vectorized").fuse(
            fusion_input
        )
        assert vectorized.diagnostics["gold_initialized"] == serial.diagnostics[
            "gold_initialized"
        ]
        assert_close(serial, vectorized)

    def test_vote_kernel_respects_coverage_filter(self, micro_scenario):
        """Regression: vectorized VOTE must honour require_repeated —
        items without any >=2-provenance triple stay unpredicted, exactly
        as the serial Stage-I reducer leaves them."""
        from repro.fusion.vote import VoteKernel

        fusion_input = micro_scenario.fusion_input()

        def run(backend):
            return run_bayesian_fusion(
                fusion_input=fusion_input,
                config=FusionConfig(filter_by_coverage=True, backend=backend),
                item_posterior_fn=VoteKernel(),
                method_name="VOTE",
            )

        serial, vectorized = run("serial"), run("vectorized")
        assert vectorized.diagnostics["backend_used"] == "vectorized"
        assert serial.unpredicted, "scenario must exercise the filter"
        assert_close(serial, vectorized)

    def test_diagnostics_match_serial(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        serial = popaccu(backend="serial").fuse(fusion_input)
        vectorized = popaccu(backend="vectorized").fuse(fusion_input)
        for key in ("n_items", "n_provenances", "n_claims", "n_active_final"):
            assert vectorized.diagnostics[key] == serial.diagnostics[key], key


class TestBatchedKernelRequired:
    @pytest.mark.parametrize("backend", ["vectorized", "hybrid"])
    def test_closure_posterior_is_a_config_error(
        self, micro_scenario, monkeypatch, backend
    ):
        """No ``batch_round`` under a batched mode: rejected before the
        claim matrix is even built."""
        fusion_input = micro_scenario.fusion_input()
        monkeypatch.setattr(fusion_input, "claims", pytest.fail)
        with pytest.raises(ConfigError, match="batch_round"):
            run_bayesian_fusion(
                fusion_input=fusion_input,
                config=FusionConfig(backend=backend, max_rounds=2),
                item_posterior_fn=lambda rows: rows,
                method_name="POPACCU-closure",
            )

    def test_closure_posterior_is_a_config_error_in_serial(
        self, micro_scenario, monkeypatch
    ):
        """No ``exact_round`` under ``serial``: rejected before the claim
        matrix is even built, as a batched mode rejects no ``batch_round``."""
        fusion_input = micro_scenario.fusion_input()
        monkeypatch.setattr(fusion_input, "claims", pytest.fail)
        with pytest.raises(ConfigError, match="exact_round"):
            run_bayesian_fusion(
                fusion_input=fusion_input,
                config=FusionConfig(backend="serial", max_rounds=2),
                item_posterior_fn=lambda rows: rows,
                method_name="POPACCU-closure",
            )

    def test_batched_modes_need_the_exact_form_too(self, micro_scenario, monkeypatch):
        """``exact_round`` is the reference form the θ-rescue scores with,
        so a batched mode rejects a posterior without one as well."""

        class BatchOnly:
            batch_round = PopAccuKernel().batch_round

        fusion_input = micro_scenario.fusion_input()
        monkeypatch.setattr(fusion_input, "claims", pytest.fail)
        with pytest.raises(ConfigError, match="exact_round"):
            run_bayesian_fusion(
                fusion_input=fusion_input,
                config=FusionConfig(backend="vectorized"),
                item_posterior_fn=BatchOnly(),
                method_name="POPACCU-batch-only",
            )


class TestVectorizedRounds:
    def test_sampling_keeps_the_batched_kernel(self, micro_scenario):
        """A tiny L engages reducer-input sampling in both stages; the
        vectorized backend reads the same claim masks as serial."""
        fusion_input = micro_scenario.fusion_input()
        serial = popaccu(
            FusionConfig(sample_limit=2, backend="serial")
        ).fuse(fusion_input)
        vectorized = popaccu(
            FusionConfig(sample_limit=2, backend="vectorized")
        ).fuse(fusion_input)
        assert vectorized.diagnostics["backend_used"] == "vectorized"
        assert vectorized.diagnostics["parity"] == "tolerance"
        assert_close(serial, vectorized)

    def test_track_rounds_supported_by_vectorized(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        serial = run_popaccu_tracked("serial", fusion_input)
        vectorized = run_popaccu_tracked("vectorized", fusion_input)
        assert len(serial.diagnostics["round_probabilities"]) == len(
            vectorized.diagnostics["round_probabilities"]
        )
        for snap_s, snap_v in zip(
            serial.diagnostics["round_probabilities"],
            vectorized.diagnostics["round_probabilities"],
        ):
            assert set(snap_s) == set(snap_v)
            for triple, probability in snap_s.items():
                assert snap_v[triple] == pytest.approx(probability, abs=1e-9)


def run_popaccu_tracked(backend, fusion_input):
    from repro.fusion.popaccu import PopAccuKernel

    return run_bayesian_fusion(
        fusion_input=fusion_input,
        config=FusionConfig(backend=backend, max_rounds=2),
        item_posterior_fn=PopAccuKernel(),
        method_name="POPACCU",
        track_rounds=True,
    )


class TestConfigSurface:
    def test_backend_constants(self):
        assert FUSION_MODES == ("serial", "vectorized", "hybrid")
        assert FusionConfig().backend == "serial"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigError):
            FusionConfig(backend="gpu")

    def test_invalid_n_workers_rejected(self):
        with pytest.raises(ConfigError):
            FusionConfig(n_workers=0)

    @pytest.mark.parametrize("backend", FUSION_MODES)
    def test_presets_thread_backend(self, backend):
        for preset in (vote, accu, popaccu, popaccu_plus_unsup):
            assert preset(backend=backend).config.backend == backend
        assert popaccu_plus(None, backend=backend).config.backend == backend

    def test_preset_backend_preserves_other_config(self):
        config = FusionConfig(max_rounds=3)
        fuser = accu(config, backend="vectorized")
        assert fuser.config.max_rounds == 3
        assert fuser.config.backend == "vectorized"
