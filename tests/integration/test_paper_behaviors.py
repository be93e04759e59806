"""Integration tests pinning the paper's headline qualitative findings.

Each test names the claim in the paper it checks.  These are *shape*
assertions — the synthetic corpus is ~10⁴x smaller than the paper's, so we
assert directions and orderings, not absolute numbers.
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.common import metrics_for, standard_fusion_results


@pytest.fixture(scope="module")
def results(tiny_scenario):
    return standard_fusion_results(tiny_scenario)


@pytest.fixture(scope="module")
def metrics(tiny_scenario, results):
    return {
        name: metrics_for(result.probabilities, tiny_scenario.gold)
        for name, result in results.items()
    }


class TestSection42:
    def test_vote_is_worst_on_auc_pr(self, metrics):
        """Fig 9: 'In terms of PR-curves ... VOTE has the lowest [AUC-PR].'"""
        assert metrics["VOTE"].auc_pr == min(
            metrics[name].auc_pr for name in ("VOTE", "ACCU", "POPACCU")
        )

    def test_vote_spikes_at_one_are_impure(self, tiny_scenario, results):
        """Fig 9: the real accuracy of VOTE's p=1.0 triples is far below 1
        (the paper measured 0.56)."""
        from repro.eval.calibration import calibration_curve

        curve = calibration_curve(results["VOTE"].probabilities, tiny_scenario.gold)
        top = curve.buckets[-1]
        assert top.count > 0
        assert top.real < 0.8

    def test_bayesian_methods_overconfident_at_top(self, tiny_scenario, results):
        """§4.2: ACCU/POPACCU 'over-estimate for triples with a high
        predicted probability'."""
        from repro.eval.calibration import calibration_curve

        for name in ("ACCU", "POPACCU"):
            curve = calibration_curve(
                results[name].probabilities, tiny_scenario.gold
            )
            top = [b for b in curve.buckets if b.low >= 0.9 and b.count > 0]
            assert top
            weighted_real = sum(b.real * b.count for b in top) / sum(
                b.count for b in top
            )
            assert weighted_real < 0.95


class TestSection43:
    def test_gold_initialisation_helps(self, metrics):
        """Fig 12/13: the semi-supervised POPACCU+ beats everything."""
        assert metrics["POPACCU+"].auc_pr == max(m.auc_pr for m in metrics.values())
        assert metrics["POPACCU+"].wdev == min(m.wdev for m in metrics.values())

    def test_refinements_improve_over_basic_popaccu(self, metrics):
        """Fig 13: the cumulative changes reduce weighted deviation and
        raise AUC-PR relative to basic POPACCU."""
        assert metrics["POPACCU+"].wdev < metrics["POPACCU"].wdev
        assert metrics["POPACCU+"].auc_pr > metrics["POPACCU"].auc_pr

    def test_more_gold_is_monotone_in_auc(self, tiny_scenario):
        """Fig 12: 'the higher sample rate, the better results'."""
        data = run_experiment("fig12", tiny_scenario).data
        aucs = [data[rate]["auc_pr"] for rate in ("10%", "20%", "50%", "100%")]
        # Allow small non-monotonic jitter at tiny scale, but the trend must
        # be upward end to end.
        assert aucs[-1] > aucs[0]

    def test_sampling_l_barely_matters(self, tiny_scenario):
        """Fig 14: 'sampling L = 1K triples ... leads to very similar
        performance measures'."""
        data = run_experiment("fig14", tiny_scenario).data["lr_table"]
        assert data["L=1K, R=5"]["wdev"] == pytest.approx(
            data["L=1M, R=5"]["wdev"], abs=0.02
        )

    def test_round_one_moves_most(self, tiny_scenario):
        """Fig 14: 'the predicted triple probabilities would change a lot
        from the first round to the second, but stay fairly stable
        afterwards' — with default init."""
        data = run_experiment("fig14", tiny_scenario).data["per_round_wdev"]
        series = data["DefaultAccu"]
        first_move = abs(series[1] - series[0])
        later_moves = [abs(series[i + 1] - series[i]) for i in range(1, len(series) - 1)]
        assert later_moves
        assert first_move >= max(later_moves) - 0.01


class TestSection44AndFigures:
    def test_extraction_errors_dominate_source_errors(self, tiny_scenario):
        """§3.2.1: 'extractions are responsible for the majority of the
        errors' (the paper's sample: only 4% were genuinely source-provided)."""
        cols = tiny_scenario.records.columns
        extraction = (cols.has_debug & (cols.error_kind >= 0)).sum()
        source = (cols.has_debug & cols.flags[:, 0]).sum()
        assert extraction > source

    def test_fp_mix_contains_cwa_artifacts(self, tiny_scenario):
        """Fig 17: half the false positives were not errors at all but
        closed-world artifacts; both categories must appear.  The tiny
        scenario has very few FPs at p>=0.9, so the check widens the
        threshold to get a usable sample (the paper's protocol of sampling
        p=1.0 triples needs web-scale volumes)."""
        from repro.eval.analysis import analyze_errors
        from repro.experiments.common import standard_fusion_results

        result = standard_fusion_results(tiny_scenario)["POPACCU+"]
        breakdown = analyze_errors(
            tiny_scenario, result.probabilities, fp_threshold=0.6, fn_threshold=0.4
        )
        cwa = (
            breakdown.fp_categories.get("closed_world_assumption", 0)
            + breakdown.fp_categories.get("more_specific_value", 0)
            + breakdown.fp_categories.get("more_general_value", 0)
            + breakdown.fp_categories.get("wrong_value_in_freebase", 0)
        )
        assert cwa > 0
        assert breakdown.fp_categories.get("common_extraction_error", 0) > 0

    def test_fn_mix_dominated_by_multiple_truths(self, tiny_scenario):
        """Fig 17: 65% of false negatives stem from multiple truths under
        the single-truth assumption."""
        data = run_experiment("fig17", tiny_scenario).data
        categories = data["fn_categories"]
        assert categories.get("multiple_truths", 0) >= max(
            categories.get("specific_general", 0) - 2, 0
        )

    def test_extractor_accuracy_ordering(self, tiny_scenario):
        """Table 2's extremes: the careful extractors (TXT4, TBL2, DOM3)
        beat the sloppy ones (DOM2, DOM5) by a wide margin."""
        data = run_experiment("table2", tiny_scenario).data
        careful = [
            data[name]["accuracy"]
            for name in ("TXT4", "TBL2", "DOM3")
            if data[name]["accuracy"] is not None
        ]
        sloppy = [
            data[name]["accuracy"]
            for name in ("DOM2", "DOM5")
            if data[name]["accuracy"] is not None
        ]
        assert careful and sloppy
        assert min(careful) > max(sloppy)

    def test_fig18_multi_extractor_triples_better(self, tiny_scenario):
        """Fig 18: at fixed #provenances, multi-extractor triples are more
        accurate than single-extractor ones on average."""
        data = run_experiment("fig18", tiny_scenario).data
        single = dict((e, a) for e, _n, a in data["1 extractor"])
        multi_key = next(k for k in data if k.startswith(">="))
        multi = dict((e, a) for e, _n, a in data[multi_key])
        shared = set(single) & set(multi)
        if not shared:
            pytest.skip("no shared provenance buckets at this scale")
        gaps = [multi[e] - single[e] for e in shared]
        assert sum(gaps) / len(gaps) > 0

    def test_fig16_probabilities_polarised(self, tiny_scenario):
        """Fig 16: most POPACCU+ probabilities are near 0 or 1."""
        data = run_experiment("fig16", tiny_scenario).data
        assert data["share_low"] + data["share_high"] > 0.5
