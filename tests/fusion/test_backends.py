"""Backend regression tests: serial / parallel / vectorized fusion.

The contract, tested on real seeded scenarios:

- ``parallel`` is **bit-identical** to ``serial`` on every start method
  (the columnar shuffle runs the same scalar kernels, which sum in
  canonical order, so worker hash randomization cannot leak into the
  floats — see tests/fusion/test_columnar_shuffle.py for the full
  worker-count × start-method matrix);
- ``vectorized`` matches ``serial`` to 1e-9 (summation order differs);
- backends that cannot engage (closure posteriors, sampling pressure)
  fall back to the serial reference and still produce correct results.
"""

import pytest

from repro.errors import ConfigError
from repro.fusion import (
    BACKENDS,
    FusionConfig,
    accu,
    popaccu,
    popaccu_plus,
    popaccu_plus_unsup,
    vote,
)
from repro.fusion.popaccu import popaccu_item_posteriors
from repro.fusion.runner import run_bayesian_fusion


def assert_identical(result_a, result_b):
    assert result_a.probabilities == result_b.probabilities
    assert result_a.accuracies == result_b.accuracies
    assert result_a.unpredicted == result_b.unpredicted
    assert result_a.rounds == result_b.rounds
    assert result_a.converged == result_b.converged


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


@pytest.mark.parallel_backend
class TestParallelDeterminism:
    def test_popaccu_bit_identical(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        serial = popaccu(backend="serial").fuse(fusion_input)
        parallel = popaccu(backend="parallel").fuse(fusion_input)
        assert parallel.diagnostics["backend_used"] == "parallel"
        assert_identical(serial, parallel)

    def test_popaccu_plus_bit_identical(self, micro_scenario):
        """Same-seed POPACCU+ (all refinements + gold) across backends."""
        fusion_input = micro_scenario.fusion_input()
        serial = popaccu_plus(micro_scenario.gold, backend="serial").fuse(
            fusion_input
        )
        parallel = popaccu_plus(micro_scenario.gold, backend="parallel").fuse(
            fusion_input
        )
        assert_identical(serial, parallel)

    def test_vote_bit_identical(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        assert_identical(
            vote(backend="serial").fuse(fusion_input),
            vote(backend="parallel").fuse(fusion_input),
        )


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


class TestFallbacks:
    def test_closure_posterior_falls_back_to_serial(self, micro_scenario):
        """Extensions pass plain closures; vectorized must degrade safely."""
        fusion_input = micro_scenario.fusion_input()
        config = FusionConfig(backend="vectorized", max_rounds=2)
        result = run_bayesian_fusion(
            fusion_input=fusion_input,
            config=config,
            item_posterior_fn=lambda claims, acc: popaccu_item_posteriors(
                claims, acc
            ),
            method_name="POPACCU-closure",
        )
        assert result.diagnostics["backend_used"] == "serial (vectorized fallback)"
        reference = popaccu(
            FusionConfig(backend="serial", max_rounds=2)
        ).fuse(fusion_input)
        assert result.probabilities == reference.probabilities

    def test_sampling_pressure_falls_back_to_serial(self, micro_scenario):
        """A tiny L forces reducer-input sampling: the scalar dataflow is
        the defined behaviour, so the vectorized backend must defer."""
        fusion_input = micro_scenario.fusion_input()
        serial = popaccu(
            FusionConfig(sample_limit=2, backend="serial")
        ).fuse(fusion_input)
        vectorized = popaccu(
            FusionConfig(sample_limit=2, backend="vectorized")
        ).fuse(fusion_input)
        assert (
            vectorized.diagnostics["backend_used"] == "serial (vectorized fallback)"
        )
        assert_identical(serial, vectorized)

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
        assert BACKENDS == ("serial", "parallel", "vectorized", "hybrid")
        assert FusionConfig().backend == "serial"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigError):
            FusionConfig(backend="gpu")

    def test_invalid_n_workers_rejected(self):
        with pytest.raises(ConfigError):
            FusionConfig(n_workers=0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_presets_thread_backend(self, backend):
        for preset in (vote, accu, popaccu, popaccu_plus_unsup):
            assert preset(backend=backend).config.backend == backend
        assert popaccu_plus(None, backend=backend).config.backend == backend

    def test_preset_backend_preserves_other_config(self):
        config = FusionConfig(max_rounds=3, n_false_values=50)
        fuser = accu(config, backend="vectorized")
        assert fuser.config.max_rounds == 3
        assert fuser.config.n_false_values == 50
        assert fuser.config.backend == "vectorized"
