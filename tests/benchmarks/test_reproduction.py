"""The reproduction cases against the committed reports.

One ``--all --scale small --seed 0`` run of ``benchmarks/run.py`` — the
preset the committed reports were made at — regenerates every report into
a scratch directory, and each must match its committed copy byte for
byte: a changed figure digit fails here, not only in CI's drift gate.

The same run captures every experiment's ``data``.  Each sanity check in
``EXPERIMENT_CHECKS`` must pass on it, and must reject a copy broken the
way the check names: a check that cannot fail guards nothing.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import pytest

import benchmarks.registry as registry
import benchmarks.run as run_mod
from benchmarks.registry import EXPERIMENT_CHECKS, REGISTRY, RESULTS_DIR
from repro.experiments import experiment_ids, run_experiment

COMMITTED_REPORTS = sorted(path.name for path in RESULTS_DIR.glob("*.txt"))


@dataclass
class Reproduction:
    exit_code: int
    out_dir: Path
    #: experiment id -> (result.data, scenario) as the case body saw them.
    captured: dict


@pytest.fixture(scope="module")
def reproduction(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("results")
    captured = {}

    def capturing(experiment_id, scenario):
        result = run_experiment(experiment_id, scenario)
        captured[experiment_id] = (result.data, scenario)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(registry, "run_experiment", capturing)
        exit_code = run_mod.main(
            ["--all", "--scale", "small", "--seed", "0", "--out-dir", str(out_dir)]
        )
    return Reproduction(exit_code, out_dir, captured)


class TestCommittedReports:
    def test_every_case_passes(self, reproduction):
        assert reproduction.exit_code == 0
        assert set(reproduction.captured) == set(experiment_ids())

    def test_results_dir_holds_exactly_the_regenerated_reports(self, reproduction):
        regenerated = sorted(p.name for p in reproduction.out_dir.iterdir())
        assert regenerated == COMMITTED_REPORTS

    @pytest.mark.parametrize("report", COMMITTED_REPORTS)
    def test_report_is_byte_identical(self, reproduction, report):
        regenerated = (reproduction.out_dir / report).read_bytes()
        assert regenerated == (RESULTS_DIR / report).read_bytes(), (
            f"{report} drifted: regenerate with "
            "`python benchmarks/run.py --all --scale small`"
        )


# ---------------------------------------------------------------------------
# One breakage per sanity check: each edits a deep copy of the real data in
# place so that exactly the property the check asserts no longer holds.
# ---------------------------------------------------------------------------


def _break_fig3(data):
    contributions = data["contributions"]
    contributions["DOM"], contributions["TBL"] = (
        contributions["TBL"],
        contributions["DOM"],
    )


def _break_fig4(data):
    data["histogram"] = [(bucket, share / 2) for bucket, share in data["histogram"]]


def _break_fig5(data):
    data["mean_gap"] = 0.0


def _break_fig6(data):
    single = next(a for x, _n, a in data["points"] if x == 1)
    data["points"] = [
        (x, n, single if x >= 4 else a) for x, n, a in data["points"]
    ]


def _break_fig7(data):
    extractions, n, _accuracy = data["points"][0]
    data["points"][0] = (extractions, n, 0.9)


def _break_fig9(data):
    data["VOTE"]["auc_pr"] = data["POPACCU"]["auc_pr"] + 0.01


def _break_fig10(data):
    data["(Ext, Site, Pred, Pattern)"]["n_provenances"] = data["(Extractor, URL)"][
        "n_provenances"
    ]


def _break_fig11(data):
    data["BYCOV"]["predicted_share"] = 1.0


def _break_fig12(data):
    data["100%"]["auc_pr"] = data["default"]["auc_pr"]


def _break_fig13(data):
    data["+GoldStandard"]["wdev"] = data["POPACCU"]["wdev"]


def _break_fig14(data):
    per_round = data["per_round_wdev"]
    per_round["DefaultAccu"] = list(per_round["DefaultAccu"])[:-1]


def _break_fig15(data):
    data["POPACCU+"]["auc_pr"] = 0.0


def _break_fig16(data):
    data["share_high"] = data["share_low"]


def _break_fig17(data):
    data["n_false_negatives"] = 0


def _break_fig18(data):
    single = {e: a for e, _n, a in data["1 extractor"]}
    multi_key = next(k for k in data if k.startswith(">="))
    data[multi_key] = [(e, n, single.get(e, a)) for e, n, a in data[multi_key]]


def _break_fig19(data):
    data["cross_type"]["negative"] = 0


def _break_fig20(data):
    data["distribution"] = [
        (truths, 0.4 if truths in ("0", "1") else share)
        for truths, share in data["distribution"]
    ]


def _break_fig21(data):
    del data["ANO"]


def _break_fig22(data):
    points = dict(data["points"])
    data["points"] = [
        (theta, points[0.1] if theta == 0.9 else share)
        for theta, share in data["points"]
    ]


def _break_table1(data):
    per_entity = data["skews"]["#Triples/entity"]
    per_entity["median"] = per_entity["mean"]


def _break_table2(data):
    data["DOM2"]["accuracy"] = data["TXT4"]["accuracy"]


def _break_table3(data):
    data["non_functional"]["predicates"] = data["functional"]["predicates"]


BREAKAGES = {
    "fig3": _break_fig3,
    "fig4": _break_fig4,
    "fig5": _break_fig5,
    "fig6": _break_fig6,
    "fig7": _break_fig7,
    "fig9": _break_fig9,
    "fig10": _break_fig10,
    "fig11": _break_fig11,
    "fig12": _break_fig12,
    "fig13": _break_fig13,
    "fig14": _break_fig14,
    "fig15": _break_fig15,
    "fig16": _break_fig16,
    "fig17": _break_fig17,
    "fig18": _break_fig18,
    "fig19": _break_fig19,
    "fig20": _break_fig20,
    "fig21": _break_fig21,
    "fig22": _break_fig22,
    "table1": _break_table1,
    "table2": _break_table2,
    "table3": _break_table3,
}


class TestSanityChecks:
    def test_every_experiment_has_a_check(self):
        # The case body skips a missing check, so a new experiment without
        # one would reproduce unguarded.
        assert set(EXPERIMENT_CHECKS) == set(experiment_ids())
        assert set(REGISTRY) == set(experiment_ids()) | {"extensions"}

    def test_every_check_has_a_breakage(self):
        assert set(BREAKAGES) == set(EXPERIMENT_CHECKS)

    @pytest.mark.parametrize("experiment_id", sorted(BREAKAGES))
    def test_check_rejects_broken_data(self, reproduction, experiment_id):
        data, scenario = reproduction.captured[experiment_id]
        check = EXPERIMENT_CHECKS[experiment_id]
        check(data, scenario)
        broken = copy.deepcopy(data)
        BREAKAGES[experiment_id](broken)
        with pytest.raises(AssertionError):
            check(broken, scenario)
