"""Stage III in columns: a fusion result holds its emitted rows, their
posteriors, the unpredicted-row mask and the accuracy array, and its
dicts are views built on first read.

The contracts pinned here:

- every view equals the dict Stage III used to build eagerly — keys,
  iteration order, float bits and types — in ``serial`` (record-arrival
  order), ``vectorized``, ``hybrid``, and a streamed run over mapped
  columns read after the run has closed them;
- an extension's ``result.accuracies = ...`` replaces that view;
- the metrics read the columns (the posterior column and the claim
  columns' memoised gold row column) and equal the dict path bit for
  bit;
- the method ladder plus its headline metrics builds no dict view and
  decodes no provenance key or data item.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.datasets import tiny_config
from repro.endtoend import PIPELINE_METHODS, headline_metrics, make_fuser, run_end_to_end
from repro.experiments.common import metrics_for
from repro.fusion import FusionConfig, FusionInput
from repro.errors import ConfigError
from repro.fusion.base import FusionResult, ResultColumns
from repro.fusion.extensions.confidence import ConfidenceWeightedFuser
from repro.fusion.extensions.hierarchy import HierarchicalFuser
from repro.fusion.kernels import _libm, _libm_at
from repro.fusion.observations import LazyNames
from repro.fusion.popaccu import PopAccuKernel
from repro.fusion.runner import run_bayesian_fusion
from repro.kb.triples import Triple
from repro.kb.values import StringValue

VIEWS = ("probabilities", "unpredicted", "accuracies")


def eager_views(result: FusionResult):
    """The three dicts as Stage III built them before it stayed in
    columns, spelled out from the result's columns with plain loops."""
    columns = result.columns
    triples, provenances = columns.cols.triples, list(columns.cols.provenances)
    probabilities = {}
    for row, posterior in zip(columns.rows.tolist(), columns.posteriors.tolist()):
        probabilities[triples[row]] = posterior
    unpredicted = set()
    for row in range(len(triples)):
        if columns.unpredicted[row]:
            unpredicted.add(triples[row])
    accuracies = {}
    if columns.accuracies is not None:
        for prov, accuracy in zip(provenances, columns.accuracies.tolist()):
            accuracies[prov] = accuracy
    return probabilities, unpredicted, accuracies


def assert_views_are_eager(result: FusionResult, with_accuracies: bool = True) -> None:
    probabilities, unpredicted, accuracies = eager_views(result)
    assert [(t, p.hex()) for t, p in result.probabilities.items()] == [
        (t, p.hex()) for t, p in probabilities.items()
    ]
    assert list(result.unpredicted) == list(unpredicted)
    assert all(type(t) is Triple for t in result.probabilities)
    assert all(type(p) is float for p in result.probabilities.values())
    assert all(type(t) is Triple for t in result.unpredicted)
    if with_accuracies:
        assert [(k, a.hex()) for k, a in result.accuracies.items()] == [
            (k, a.hex()) for k, a in accuracies.items()
        ]
        assert all(type(k) is tuple for k in result.accuracies)
        assert all(type(a) is float for a in result.accuracies.values())
    # Built once: a second read is the same object.
    for view in VIEWS:
        assert getattr(result, view) is getattr(result, view)


def _fuse(scenario, method, backend, **overrides):
    config = FusionConfig(seed=7, backend=backend, n_workers=2, **overrides)
    return make_fuser(method, config, scenario.gold).fuse(FusionInput(scenario.records))


class TestViewsEqualEagerDicts:
    @pytest.mark.parametrize("method", PIPELINE_METHODS)
    def test_serial_in_arrival_order(self, tiny_scenario, method):
        result = _fuse(tiny_scenario, method, "serial")
        assert_views_are_eager(result)
        arrival = FusionInput(tiny_scenario.records).arrival_rows()
        if method != "vote":  # VOTE emits canonical triple order
            emitted = arrival[np.isin(arrival, result.columns.rows)]
            assert result.columns.rows.tolist() == emitted.tolist()

    @pytest.mark.parametrize("method", PIPELINE_METHODS)
    def test_vectorized_in_canonical_rows(self, tiny_scenario, method):
        result = _fuse(tiny_scenario, method, "vectorized")
        assert_views_are_eager(result)
        assert np.all(np.diff(result.columns.rows) > 0)

    def test_coverage_filter_leaves_unpredicted_rows(self, tiny_scenario):
        result = _fuse(tiny_scenario, "popaccu", "vectorized", filter_by_coverage=True)
        assert result.unpredicted
        assert_views_are_eager(result)
        predicted, unpredicted = result.counts()
        assert (predicted, unpredicted) == (
            len(result.probabilities),
            len(result.unpredicted),
        )
        assert result.coverage() == predicted / (predicted + unpredicted)

    @pytest.mark.parallel_backend
    @pytest.mark.parametrize("method", ["vote", "popaccu+"])
    def test_hybrid_equals_vectorized(self, tiny_scenario, method):
        hybrid = _fuse(tiny_scenario, method, "hybrid")
        assert_views_are_eager(hybrid)
        vectorized = _fuse(tiny_scenario, method, "vectorized")
        assert [(t, p.hex()) for t, p in hybrid.probabilities.items()] == [
            (t, p.hex()) for t, p in vectorized.probabilities.items()
        ]

    def test_streamed_mapped_read_after_the_run(self, tmp_path):
        config = tiny_config(seed=7)
        kwargs = dict(chunk_pages=16, copy_window=None)
        mapped = run_end_to_end(config, backend="batched", cache_dir=tmp_path, **kwargs)
        assert mapped.diagnostics["column_store"] == "mapped"
        assert not mapped.fusion.columns.cols._closed  # the result owns its maps
        assert not set(VIEWS) & set(vars(mapped.fusion))  # nothing read yet
        assert_views_are_eager(mapped.fusion)
        memory = run_end_to_end(config, backend="batched", **kwargs)
        for view in VIEWS:
            assert list(getattr(mapped.fusion, view)) == list(getattr(memory.fusion, view))
        assert [p.hex() for p in mapped.fusion.probabilities.values()] == [
            p.hex() for p in memory.fusion.probabilities.values()
        ]
        assert mapped.metrics == memory.metrics


class TestAssignment:
    @pytest.mark.parametrize("extension", ["confidence", "hierarchy"])
    def test_extension_accuracies_replace_the_view(self, tiny_scenario, extension):
        world = tiny_scenario.world
        if extension == "confidence":
            fuser = ConfidenceWeightedFuser(FusionConfig())
        else:
            fuser = HierarchicalFuser(world.schema, world.hierarchy, FusionConfig())
        result = fuser.fuse(tiny_scenario.fusion_input())
        assert result.columns.accuracies is None  # the extension assigned them
        assert "accuracies" in vars(result)
        assert list(result.accuracies) == list(result.columns.cols.provenances)
        assert_views_are_eager(result, with_accuracies=False)

    def test_assignment_on_a_ladder_result(self, tiny_scenario):
        result = _fuse(tiny_scenario, "accu", "vectorized")
        result.accuracies = {("x",): 0.5}
        assert result.accuracies == {("x",): 0.5}
        assert result.probabilities == eager_views(result)[0]


class TestMetricsReadColumns:
    @pytest.mark.parametrize("method", PIPELINE_METHODS)
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_ladder_metrics_equal_the_dict_path(self, tiny_scenario, method, backend):
        gold = tiny_scenario.gold
        result = _fuse(tiny_scenario, method, backend)
        columnar = metrics_for(result, gold, result.coverage())
        assert columnar == metrics_for(result.probabilities, gold, result.coverage())
        assert [getattr(columnar, f).hex() for f in ("dev", "wdev", "auc_pr")] == [
            getattr(metrics_for(dict(result.probabilities), gold), f).hex()
            for f in ("dev", "wdev", "auc_pr")
        ]
        headline = headline_metrics(result, gold)
        assert headline["deviation"] == columnar.dev
        assert headline["n_labelled"] == columnar.n_labelled

    @pytest.mark.parametrize("init", ["default", "gold"])
    def test_fig14_round_dicts_agree_with_the_result(self, tiny_scenario, init):
        gold = tiny_scenario.gold
        result = run_bayesian_fusion(
            tiny_scenario.fusion_input(),
            FusionConfig(convergence_tol=0.0),
            PopAccuKernel(),
            "POPACCU",
            gold_labels=gold if init == "gold" else None,
            track_rounds=True,
        )
        snapshots = result.diagnostics["round_probabilities"]
        assert all(type(snapshot) is dict for snapshot in snapshots)
        # No θ-filter: the last round's scored rows are the result's.
        assert list(snapshots[-1].items()) == list(result.probabilities.items())
        assert metrics_for(snapshots[-1], gold) == metrics_for(result, gold)

    def test_gold_column_is_memoised_per_gold_dict(self, tiny_scenario):
        gold = tiny_scenario.gold
        fusion_input = FusionInput(tiny_scenario.records)
        fine = fusion_input.claims(FusionConfig().granularity)
        coarse = fusion_input.claims(make_fuser("popaccu+", FusionConfig(), gold).config.granularity)
        assert fine is not coarse
        column = fine.gold_rows(gold)
        assert column.dtype == np.int8
        assert coarse.gold_rows(gold) is column  # one memo per fusion input
        expected = [-1 if t not in gold else int(gold[t]) for t in fine.texts]
        assert column.tolist() == expected
        other = dict(gold)
        assert fine.gold_rows(other) is not column
        assert fine.gold_rows(other).tolist() == expected
        grown = dict(other)
        grown[Triple("/m/none", "t/t/p", StringValue("z")).canonical()] = True
        assert fine.gold_rows(grown).tolist() == expected


class TestNothingDecodedOrBuilt:
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_ladder_and_metrics_read_columns_only(self, tiny_scenario, backend, monkeypatch):
        decoded = []
        original = LazyNames.decoded

        def spy(names):
            decoded.append(names)
            return original(names)

        monkeypatch.setattr(LazyNames, "decoded", spy)
        gold = tiny_scenario.gold
        fusion_input = FusionInput(tiny_scenario.records)
        config = FusionConfig(seed=0, backend=backend)
        results = []
        for method in PIPELINE_METHODS:
            result = make_fuser(method, config, gold).fuse(fusion_input)
            headline_metrics(result, gold)
            results.append(result)
        assert decoded == []
        for result in results:
            assert not set(VIEWS) & set(vars(result))
        # Reading a view is what decodes.
        assert results[-1].accuracies
        assert decoded and decoded[0] is results[-1].columns.cols.provenances


class TestLazyNames:
    def test_length_decodes_nothing(self):
        calls = []
        names = LazyNames(2, lambda: calls.append(1) or [("a",), ("b",)])
        assert len(names) == 2 and calls == []
        assert names[1] == ("b",) and list(names) == [("a",), ("b",)]
        assert calls == [1]

    def test_claim_view_names_decode_on_read(self, tiny_scenario):
        # A fresh view of the scenario's store: a layout no other test read.
        cols = FusionInput(tiny_scenario.records).claims(FusionConfig().granularity)
        assert isinstance(cols.items, LazyNames) and isinstance(cols.provenances, LazyNames)
        assert cols.items._values is None and cols.provenances._values is None
        assert cols.n_items == len(cols.items) and cols.items._values is None
        assert sorted(cols.items) == list(cols.items)
        assert sorted(cols.provenances) == list(cols.provenances)


def test_libm_at_is_the_gathered_libm():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.01, 0.99, 500)
    ids = rng.integers(0, 500, 2000)
    for fn in (math.log, math.exp):
        assert _libm_at(fn, values, ids).tobytes() == _libm(fn, values)[ids].tobytes()
    assert _libm_at(math.log, values, np.zeros(0, dtype=np.int64)).size == 0


def test_result_columns_reject_out_of_range(tiny_scenario):
    cols = FusionInput(tiny_scenario.records).claims(FusionConfig().granularity)
    rows = np.arange(2)
    with pytest.raises(ConfigError, match="probability out of range"):
        FusionResult(
            "X", ResultColumns(cols, rows, np.array([0.5, 1.5]), np.zeros(cols.n_rows, bool))
        )
