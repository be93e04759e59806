"""The reproduction against the committed reports, through ``repro-kf run``.

One ``run all --scale small --seed 0 --out-dir D`` — the preset the
committed reports were made at — regenerates every report into a scratch
directory, and each must match its committed copy byte for byte: a
changed figure digit fails here, not only in CI's drift gate.

The same run captures every experiment's result.  Each named check must
pass on its ``data``, and must fail — alone among the experiment's checks
— on a copy broken the way the check names: a check that cannot fail
guards nothing.
"""

from __future__ import annotations

import copy
import importlib
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro.cli as cli
from repro.experiments import ExperimentResult, experiment_ids, run_experiment

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
COMMITTED_REPORTS = sorted(path.name for path in RESULTS_DIR.glob("*.txt"))


def _checks(experiment_id: str) -> dict:
    return importlib.import_module(f"repro.experiments.{experiment_id}").CHECKS


@dataclass
class Reproduction:
    exit_code: int
    out_dir: Path
    #: experiment id -> the result ``repro-kf run`` saw.
    captured: dict[str, ExperimentResult]


@pytest.fixture(scope="module")
def reproduction(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("results")
    captured = {}

    def capturing(experiment_id, scenario):
        result = run_experiment(experiment_id, scenario)
        captured[experiment_id] = result
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_experiment", capturing)
        exit_code = cli.main(
            ["run", "all", "--scale", "small", "--seed", "0", "--out-dir", str(out_dir)]
        )
    return Reproduction(exit_code, out_dir, captured)


class TestCommittedReports:
    def test_every_experiment_passes(self, reproduction):
        assert reproduction.exit_code == 0
        assert set(reproduction.captured) == set(experiment_ids())

    def test_results_dir_holds_exactly_the_regenerated_reports(self, reproduction):
        regenerated = sorted(p.name for p in reproduction.out_dir.iterdir())
        assert regenerated == COMMITTED_REPORTS
        assert regenerated == sorted(f"{i}.txt" for i in experiment_ids())

    @pytest.mark.parametrize("report", COMMITTED_REPORTS)
    def test_report_is_byte_identical(self, reproduction, report):
        regenerated = (reproduction.out_dir / report).read_bytes()
        assert regenerated == (RESULTS_DIR / report).read_bytes(), (
            f"{report} drifted: regenerate with "
            "`repro-kf run all --scale small --out-dir benchmarks/results`"
        )


# ---------------------------------------------------------------------------
# One breakage per named check: each edits a deep copy of the real data in
# place so that exactly the property the check names no longer holds.
# ---------------------------------------------------------------------------


def _break_fig6_rise(data):
    single = next(a for x, _n, a in data["points"] if x == 1)
    data["points"] = [(x, n, single if x >= 4 else a) for x, n, a in data["points"]]


def _break_fig18(data):
    single = {e: a for e, _n, a in data["1 extractor"]}
    multi_key = next(k for k in data if k.startswith(">="))
    data[multi_key] = [(e, n, single.get(e, a)) for e, n, a in data[multi_key]]


def _break_fig20(data):
    data["distribution"] = [
        (truths, 0.4 if truths in ("0", "1") else share)
        for truths, share in data["distribution"]
    ]


def _break_fig22_rise(data):
    points = dict(data["points"])
    data["points"] = [
        (theta, points[0.1] if theta == 0.9 else share)
        for theta, share in data["points"]
    ]


BREAKAGES = {
    ("table1", "over_1000_unique_triples"): lambda d: d["counts"].update(
        {"#Triples (unique)": 1000}
    ),
    ("table1", "triples_per_entity_skewed"): lambda d: d["skews"][
        "#Triples/entity"
    ].update(median=d["skews"]["#Triples/entity"]["mean"]),
    ("table2", "twelve_extractors"): lambda d: d.pop("TXT1"),
    ("table2", "txt4_far_above_dom2"): lambda d: d["DOM2"].update(
        accuracy=d["TXT4"]["accuracy"]
    ),
    ("table2", "dom1_contributes_most"): lambda d: d["DOM2"].update(
        records=d["DOM1"]["records"] + 1
    ),
    ("table3", "mostly_non_functional"): lambda d: d["non_functional"].update(
        predicates=d["functional"]["predicates"]
    ),
    ("fig3", "dom_contributes_most"): lambda d: d["contributions"].update(
        TXT=d["contributions"]["DOM"] + 1
    ),
    ("fig3", "tbl_contributes_least"): lambda d: d["contributions"].update(
        ANO=d["contributions"]["TBL"] - 1
    ),
    ("fig3", "overlaps_below_half_of_dom"): lambda d: d["overlaps"].update(
        {"TXT&DOM": d["contributions"]["DOM"]}
    ),
    ("fig4", "share_low_is_proper"): lambda d: d.update(share_low=1.0),
    ("fig4", "histogram_sums_to_one"): lambda d: d.update(
        histogram=[(bucket, share / 2) for bucket, share in d["histogram"]]
    ),
    ("fig5", "mean_gap_above_tenth"): lambda d: d.update(mean_gap=0.0),
    ("fig5", "some_gap_above_half"): lambda d: d.update(share_above_half=0.0),
    ("fig6", "has_points"): lambda d: d.update(points=[]),
    ("fig6", "four_extractors_beat_one"): _break_fig6_rise,
    ("fig7", "single_url_unreliable"): lambda d: d.update(
        points=[(*d["points"][0][:2], 0.6), *d["points"][1:]]
    ),
    ("fig7", "more_urls_more_accurate"): lambda d: d.update(
        points=[(x, n, d["points"][0][2]) for x, n, _a in d["points"]]
    ),
    ("fig9", "vote_lowest_auc_pr"): lambda d: d["VOTE"].update(
        auc_pr=d["POPACCU"]["auc_pr"] + 0.01
    ),
    ("fig10", "four_granularities"): lambda d: d.pop("(Extractor, Site)"),
    ("fig10", "granularity_changes_provenances"): lambda d: d[
        "(Ext, Site, Pred, Pattern)"
    ].update(n_provenances=d["(Extractor, URL)"]["n_provenances"]),
    ("fig11", "bycov_filters_some"): lambda d: d["BYCOV"].update(predicted_share=1.0),
    ("fig11", "nofiltering_predicts_all"): lambda d: d["NOFILTERING"].update(
        predicted_share=0.9
    ),
    ("fig12", "full_gold_beats_default"): lambda d: d["100%"].update(
        auc_pr=d["default"]["auc_pr"]
    ),
    ("fig13", "gold_lowers_wdev"): lambda d: d["+GoldStandard"].update(
        wdev=d["POPACCU"]["wdev"]
    ),
    ("fig13", "gold_raises_auc_pr"): lambda d: d["+GoldStandard"].update(
        auc_pr=d["POPACCU"]["auc_pr"]
    ),
    ("fig14", "five_default_rounds"): lambda d: d["per_round_wdev"].update(
        DefaultAccu=list(d["per_round_wdev"]["DefaultAccu"])[:-1]
    ),
    ("fig14", "sampling_keeps_wdev"): lambda d: d["lr_table"]["L=1K, R=5"].update(
        wdev=d["lr_table"]["L=1M, R=5"]["wdev"] + 0.05
    ),
    ("fig15", "popaccu_plus_best_auc_pr"): lambda d: d["POPACCU+"].update(auc_pr=0.0),
    ("fig16", "polarised"): lambda d: d.update(share_low=0.2, share_high=0.05),
    ("fig16", "low_outweighs_high"): lambda d: d.update(share_high=d["share_low"]),
    ("fig17", "has_false_positives"): lambda d: d.update(n_false_positives=0),
    ("fig17", "has_false_negatives"): lambda d: d.update(n_false_negatives=0),
    ("fig17", "multiple_truths_explain_false_negatives"): lambda d: d[
        "fn_categories"
    ].pop("multiple_truths"),
    ("fig18", "more_extractors_more_accurate"): _break_fig18,
    ("fig19", "counts_partition_pairs"): lambda d: d["pairs"].popitem(),
    ("fig19", "some_cross_type_negative"): lambda d: d["cross_type"].update(
        negative=0
    ),
    ("fig20", "few_truths_dominate"): _break_fig20,
    ("fig21", "four_extractors"): lambda d: d.pop("ANO"),
    ("fig21", "dom2_reports_extremes"): lambda d: d["DOM2"].update(
        coverage=[(c, 0.3 if c == 0.1 else s) for c, s in d["DOM2"]["coverage"]]
    ),
    ("fig22", "low_theta_loses_triples"): lambda d: d.update(
        points=[(theta, 1.0 if theta == 0.1 else s) for theta, s in d["points"]]
    ),
    ("fig22", "higher_theta_loses_more"): _break_fig22_rise,
    ("ext_split", "dom2_below_dom3"): lambda d: d["extractor_quality"].update(
        DOM2=d["extractor_quality"]["DOM3"]
    ),
    ("ext_split", "dom2_below_txt4"): lambda d: d["extractor_quality"].update(
        TXT4=d["extractor_quality"]["DOM2"]
    ),
    ("ext_funct", "multitruth_keeps_recall"): lambda d: d["recall"].update(
        MULTITRUTH=d["recall"]["POPACCU"] - 0.01
    ),
    ("ext_hier", "hieraccu_keeps_recall"): lambda d: d["recall"].update(
        HIERACCU=d["recall"]["ACCU"] - 0.01
    ),
    ("ext_conf", "confaccu_near_accu"): lambda d: d["auc_pr"].update(
        CONFACCU=d["auc_pr"]["ACCU"] - 0.06
    ),
}


class TestChecks:
    def test_every_check_has_a_breakage(self):
        named = {(i, name) for i in experiment_ids() for name in _checks(i)}
        assert set(BREAKAGES) == named

    def test_every_experiment_has_a_check(self):
        assert all(_checks(i) for i in experiment_ids())

    @pytest.mark.parametrize("experiment_id", experiment_ids())
    def test_checks_pass_on_the_real_data(self, reproduction, experiment_id):
        checks = reproduction.captured[experiment_id].checks
        assert checks and set(checks) == set(_checks(experiment_id))
        assert all(checks.values()), checks

    @pytest.mark.parametrize("experiment_id, check_name", sorted(BREAKAGES))
    def test_breakage_flips_exactly_its_check(
        self, reproduction, experiment_id, check_name
    ):
        broken = copy.deepcopy(reproduction.captured[experiment_id].data)
        BREAKAGES[experiment_id, check_name](broken)
        failed = {
            name
            for name, check in _checks(experiment_id).items()
            if not check(broken)
        }
        assert failed == {check_name}
