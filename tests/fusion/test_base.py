"""Unit tests for FusionConfig validation and FusionResult semantics."""

import numpy as np
import pytest

from repro.errors import ConfigError
from dataclasses import fields

from repro.fusion.base import (
    DEFAULT_ACCURACY,
    N_FALSE_VALUES,
    FusionConfig,
    FusionResult,
    ResultColumns,
)
from repro.fusion.observations import ColumnarClaims
from repro.fusion.provenance import Granularity
from repro.mapreduce.executors import FUSION_MODES
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
    @pytest.mark.parametrize("backend", FUSION_MODES)
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


def result_over(predicted: dict, unpredicted=()) -> FusionResult:
    """A result over bare columns whose rows are ``predicted``'s triples,
    then ``unpredicted``'s."""
    triples = [*predicted, *unpredicted]
    empty = np.zeros(0, dtype=np.int64)
    cols = ColumnarClaims(
        Granularity.EXTRACTOR_URL, [], triples, [], empty, empty, empty, empty, empty, empty
    )
    n = len(predicted)
    return FusionResult(
        "X",
        ResultColumns(
            cols,
            np.arange(n),
            np.array(list(predicted.values()), dtype=np.float64),
            np.arange(len(triples)) >= n,
        ),
    )


class TestFusionResult:
    def test_coverage_full(self):
        result = result_over({t("a"): 0.5})
        assert result.coverage() == 1.0

    def test_coverage_partial(self):
        result = result_over({t("a"): 0.5}, [t("b")])
        assert result.coverage() == pytest.approx(0.5)
        assert result.probabilities == {t("a"): 0.5}
        assert result.unpredicted == {t("b")}
        assert result.accuracies == {}

    def test_coverage_empty(self):
        assert result_over({}).coverage() == 0.0

    def test_validate_accepts_unit_interval(self):
        result_over({t("a"): 0.0, t("b"): 1.0})

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ConfigError, match="/m/1"):
            result_over({t("a"): 1.1})
