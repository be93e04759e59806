"""Every experiment runs on the tiny scenario and reports sane data."""

import dataclasses

import pytest

from repro.cli import main
from repro.datasets.profiles import EXTRACTOR_PROFILES
from repro.errors import ExperimentError
from repro.experiments import ExperimentResult, experiment_ids, run_experiment
from repro.extract import records as records_module
from repro.extract import synthesis
from repro.extract.records import ExtractionRecord, RecordTables
from repro.fusion.observations import FusionInput

ALL_IDS = (
    "table1", "table2", "table3",
    "fig3", "fig4", "fig5", "fig6", "fig7",
    "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
    "ext_split", "ext_funct", "ext_hier", "ext_conf",
)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert experiment_ids() == ALL_IDS

    def test_unknown_id_raises(self, tiny_scenario):
        with pytest.raises(ExperimentError):
            run_experiment("fig99", tiny_scenario)

    def test_empty_data_raises(self, tiny_scenario, monkeypatch):
        import repro.experiments.table3 as table3

        monkeypatch.setattr(
            table3, "run", lambda scenario: ExperimentResult("table3", "T", "text")
        )
        with pytest.raises(ExperimentError, match="no data"):
            run_experiment("table3", tiny_scenario)

    def test_every_check_is_evaluated(self, tiny_scenario):
        # The checks are calibrated at small.  Here TXT4 has no labelled
        # triple, so table2's quality-spread check cannot evaluate: it
        # fails, and the check after it is still evaluated.
        checks = run_experiment("table2", tiny_scenario).checks
        assert checks == {
            "twelve_extractors": True,
            "txt4_far_above_dom2": False,
            "dom1_contributes_most": True,
        }


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_experiment_runs_and_renders(tiny_scenario, experiment_id):
    result = run_experiment(experiment_id, tiny_scenario)
    assert result.experiment_id == experiment_id
    assert result.title
    assert result.text.strip()
    assert result.data


class TestSpecificOutputs:
    def test_table1_counts_consistent(self, tiny_scenario):
        data = run_experiment("table1", tiny_scenario).data
        counts = data["counts"]
        assert counts["#Triples (unique)"] <= counts["#Extracted records"]
        assert counts["#Data-items"] <= counts["#Triples (unique)"]

    def test_table1_skew_median_below_mean(self, tiny_scenario):
        skews = run_experiment("table1", tiny_scenario).data["skews"]
        assert skews["#Triples/entity"]["median"] <= skews["#Triples/entity"]["mean"]

    def test_table2_reports_all_running_extractors(self, tiny_scenario):
        data = run_experiment("table2", tiny_scenario).data
        assert set(data) == {p.name for p in EXTRACTOR_PROFILES}

    def test_table2_patterns_only_for_patterned(self, tiny_scenario):
        data = run_experiment("table2", tiny_scenario).data
        assert data["TXT1"]["patterns"] is not None
        assert data["DOM2"]["patterns"] is None
        assert data["TBL1"]["patterns"] is None

    def test_table3_majority_non_functional(self, tiny_scenario):
        data = run_experiment("table3", tiny_scenario).data
        assert (
            data["non_functional"]["predicates"] > data["functional"]["predicates"]
        )

    def test_fig3_dom_dominates(self, tiny_scenario):
        data = run_experiment("fig3", tiny_scenario).data
        assert data["contributions"]["DOM"] == max(data["contributions"].values())

    def test_fig3_overlaps_small(self, tiny_scenario):
        data = run_experiment("fig3", tiny_scenario).data
        for pair, overlap in data["overlaps"].items():
            a, b = pair.split("&")
            assert overlap <= min(
                data["contributions"][a], data["contributions"][b]
            )

    def test_fig6_accuracy_rises_with_extractors(self, tiny_scenario):
        points = run_experiment("fig6", tiny_scenario).data["points"]
        lows = [a for x, _n, a in points if x <= 2]
        highs = [a for x, _n, a in points if x >= 3]
        if lows and highs:
            assert max(highs) > min(lows)

    def test_fig9_reports_five_methods(self, tiny_scenario):
        data = run_experiment("fig9", tiny_scenario).data
        assert set(data) == {
            "VOTE",
            "ACCU",
            "POPACCU",
            "POPACCU (only ext)",
            "POPACCU (only src)",
        }

    def test_fig11_bycov_leaves_unpredicted(self, tiny_scenario):
        data = run_experiment("fig11", tiny_scenario).data
        assert data["BYCOV"]["predicted_share"] < 1.0
        assert data["NOFILTERING"]["predicted_share"] == pytest.approx(1.0)

    def test_fig12_more_gold_not_worse(self, tiny_scenario):
        data = run_experiment("fig12", tiny_scenario).data
        assert data["100%"]["auc_pr"] >= data["10%"]["auc_pr"] - 0.05

    def test_fig13_final_beats_baseline(self, tiny_scenario):
        data = run_experiment("fig13", tiny_scenario).data
        assert data["+GoldStandard"]["auc_pr"] > data["POPACCU"]["auc_pr"]
        assert data["+GoldStandard"]["wdev"] < data["POPACCU"]["wdev"]

    def test_fig14_round_table_lengths(self, tiny_scenario):
        data = run_experiment("fig14", tiny_scenario).data
        assert len(data["per_round_wdev"]["DefaultAccu"]) == 5

    def test_fig15_popaccu_plus_best(self, tiny_scenario):
        data = run_experiment("fig15", tiny_scenario).data
        assert data["POPACCU+"]["auc_pr"] == max(
            d["auc_pr"] for d in data.values()
        )

    def test_fig16_mass_sums_to_one(self, tiny_scenario):
        histogram = run_experiment("fig16", tiny_scenario).data["histogram"]
        assert sum(share for _x, share in histogram) == pytest.approx(1.0)

    def test_fig17_categories_populated(self, tiny_scenario):
        data = run_experiment("fig17", tiny_scenario).data
        assert data["n_false_positives"] > 0
        assert data["fp_categories"]

    def test_fig19_pair_count(self, tiny_scenario):
        data = run_experiment("fig19", tiny_scenario).data
        n_extractors = len(set(tiny_scenario.records.columns.codes[:, 1].tolist()))
        assert len(data["pairs"]) == n_extractors * (n_extractors - 1) // 2

    def test_fig20_distribution_sums_to_one(self, tiny_scenario):
        distribution = run_experiment("fig20", tiny_scenario).data["distribution"]
        assert sum(share for _k, share in distribution) == pytest.approx(1.0)

    def test_fig22_coverage_decreasing(self, tiny_scenario):
        points = run_experiment("fig22", tiny_scenario).data["points"]
        coverages = [c for _t, c in points]
        assert coverages == sorted(coverages, reverse=True)


class TestRecordsAreInputOnly:
    """Every experiment and ``repro-kf extract`` read the record tables'
    columns: none decodes a record table or builds a record object."""

    def test_no_reader_decodes_a_record(self, tiny_scenario, monkeypatch):
        # Fresh tables and fusion input: no decode or merge from another test.
        records = RecordTables(tiny_scenario.records.tables, tiny_scenario.records.triples)
        scenario = dataclasses.replace(
            tiny_scenario, records=records, _fusion_input=FusionInput(records)
        )
        decoded = []
        decode = records_module.records_from_wire

        def spy_decode(*args, **kwargs):
            decoded.append("records_from_wire")
            return decode(*args, **kwargs)

        def spy_init(self, *args, _init=ExtractionRecord.__init__, **kwargs):
            decoded.append("ExtractionRecord")
            _init(self, *args, **kwargs)

        monkeypatch.setattr(records_module, "records_from_wire", spy_decode)
        monkeypatch.setattr(synthesis, "records_from_wire", spy_decode)
        monkeypatch.setattr(ExtractionRecord, "__init__", spy_init)
        for experiment_id in ALL_IDS:
            run_experiment(experiment_id, scenario)
            assert decoded == [], experiment_id
        assert main(["extract", "--scale", "tiny", "--seed", "7"]) == 0
        assert decoded == []
