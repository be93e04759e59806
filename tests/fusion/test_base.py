"""Unit tests for FusionConfig validation and FusionResult semantics."""

import pytest

from repro.errors import ConfigError
from dataclasses import fields

from repro.fusion.base import (
    BACKENDS,
    DEFAULT_ACCURACY,
    N_FALSE_VALUES,
    FusionConfig,
    FusionResult,
)
from repro.kb.triples import Triple
from repro.kb.values import StringValue


def t(name):
    return Triple("/m/1", "t/t/p", StringValue(name))


class TestFusionConfig:
    def test_defaults_valid(self):
        FusionConfig()

    def test_paper_n_and_a_are_constants_not_fields(self):
        assert not {"n_false_values", "default_accuracy"} & {
            f.name for f in fields(FusionConfig)
        }
        assert (N_FALSE_VALUES, DEFAULT_ACCURACY) == (100, 0.8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_rounds": 0},
            {"min_accuracy": 1.5},
            {"min_accuracy": -0.1},
            {"gold_sample_rate": 2.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            FusionConfig(**kwargs)

    @pytest.mark.parametrize("sample_limit", [0, -3])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rejects_sample_limit_below_one(self, backend, sample_limit):
        """Used to get past construction on every backend: ``parallel``
        then returned every triple unpredicted for 0 and died inside numpy
        for -3, ``serial`` / ``vectorized`` raised only mid-fuse."""
        with pytest.raises(ConfigError, match="sample_limit must be >= 1 or None"):
            FusionConfig(backend=backend, sample_limit=sample_limit)
        assert FusionConfig(backend=backend, sample_limit=None).sample_limit is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            FusionConfig().max_rounds = 99

    def test_min_accuracy_none_allowed(self):
        assert FusionConfig(min_accuracy=None).min_accuracy is None


class TestFusionResult:
    def test_coverage_full(self):
        result = FusionResult(method="X", probabilities={t("a"): 0.5})
        assert result.coverage() == 1.0

    def test_coverage_partial(self):
        result = FusionResult(
            method="X", probabilities={t("a"): 0.5}, unpredicted={t("b")}
        )
        assert result.coverage() == pytest.approx(0.5)

    def test_coverage_empty(self):
        assert FusionResult(method="X", probabilities={}).coverage() == 0.0

    def test_validate_accepts_unit_interval(self):
        FusionResult(method="X", probabilities={t("a"): 0.0, t("b"): 1.0}).validate()

    def test_validate_rejects_out_of_range(self):
        result = FusionResult(method="X", probabilities={t("a"): 1.1})
        with pytest.raises(ConfigError):
            result.validate()
