"""Unit tests for the confidence models."""

import numpy as np
import pytest

from repro.extract.confidence import make_confidence_model
from tests.oracle.extract import transform


@pytest.fixture
def rng():
    return np.random.default_rng(0)


ALL_MODELS = ["calibrated", "extreme", "centered", "peaked", "uninformative"]


class TestFactory:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_known_models(self, name):
        assert make_confidence_model(name) is not None

    def test_none_model(self):
        assert make_confidence_model("none") is None

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError):
            make_confidence_model("psychic")


class TestRange:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_output_in_unit_interval(self, name, rng):
        model = make_confidence_model(name)
        for signal in np.linspace(0, 1, 21):
            for _ in range(10):
                value = model.bind(rng)(float(signal))
                assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_bitwise_equal_to_the_textbook_form(self, name):
        # The models spell noise and clipping for the emitter's inner
        # loop; the oracle keeps rng.normal / min / max.
        model = make_confidence_model(name)
        report = model.bind(np.random.default_rng(5))
        reference = np.random.default_rng(5)
        for signal in np.linspace(-0.2, 1.2, 57):
            assert report(float(signal)) == transform(model, float(signal), reference)


class TestShapes:
    def _mean_response(self, model, signal, rng, n=300):
        report = model.bind(rng)
        return float(np.mean([report(signal) for _ in range(n)]))

    def test_calibrated_tracks_signal(self, rng):
        model = make_confidence_model("calibrated")
        assert self._mean_response(model, 0.9, rng) > self._mean_response(
            model, 0.1, rng
        )

    def test_extreme_pushes_outward(self, rng):
        model = make_confidence_model("extreme")
        assert self._mean_response(model, 0.9, rng) > 0.9
        assert self._mean_response(model, 0.1, rng) < 0.1

    def test_centered_compresses(self, rng):
        model = make_confidence_model("centered")
        assert 0.5 < self._mean_response(model, 1.0, rng) < 0.75
        assert 0.25 < self._mean_response(model, 0.0, rng) < 0.5

    def test_peaked_is_highest_mid_signal(self, rng):
        model = make_confidence_model("peaked")
        mid = self._mean_response(model, 0.55, rng)
        low = self._mean_response(model, 0.05, rng)
        high = self._mean_response(model, 1.0, rng)
        assert mid > low and mid > high

    def test_uninformative_ignores_signal(self, rng):
        model = make_confidence_model("uninformative")
        low = self._mean_response(model, 0.0, rng, n=2000)
        high = self._mean_response(model, 1.0, rng, n=2000)
        assert abs(low - high) < 0.08
