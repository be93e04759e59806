"""``src/``'s fusion against the paper's model statements (``tests/oracle/paper.py``).

The paper oracle is a naive transcription of VOTE / ACCU / POPACCU that
shares no code with ``src/``; the exact kernels (``exact_round``) and the
``serial`` fusers must agree with it to 1e-12 — on the anchor points the
paper reports, on one data item, and on short multi-item fuses.  The
fuses apply ``src/``'s accuracy clamp to the oracle explicitly: it is a
recorded deviation (``docs/ARCHITECTURE.md``), reached as soon as an
iterated accuracy leaves [0.001, 0.999].
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion import FusionConfig, FusionInput, accu, popaccu, vote
from repro.fusion.accu import AccuKernel
from repro.fusion.popaccu import PopAccuKernel
from repro.fusion.vote import VoteKernel
from repro.kb.triples import Triple
from repro.kb.values import StringValue
from tests.oracle import paper
from tests.oracle.posteriors import kernel_posteriors
from tests.property.test_prop_fusion import claim_matrices
from tests.property.test_prop_kernels import columnar_of
from tests.property.test_prop_posteriors import claim_items

TOL = 1e-12
#: ``src/``'s accuracy clamp, restated (the oracle imports nothing from it).
CLAMP = (1e-3, 1.0 - 1e-3)


def t(name: str) -> Triple:
    return Triple("/m/1", "t/t/p", StringValue(name))


def assert_close(src: dict, oracle: dict):
    assert set(src) == set(oracle)
    for key, value in oracle.items():
        assert src[key] == pytest.approx(value, abs=TOL), key


class TestAnchorPoints:
    """§4.2's "sticking" behaviours at the default accuracy A = 0.8."""

    ONE = {t("a"): {("S1",)}}
    AGREEING = {t("a"): {("S1",), ("S2",)}}
    CONFLICTING = {t("a"): {("S1",)}, t("b"): {("S2",)}}
    DEFAULT = {("S1",): 0.8, ("S2",): 0.8}

    def test_one_default_provenance_is_exactly_a(self):
        assert paper.accu_posteriors(self.ONE, self.DEFAULT) == {t("a"): 0.8}
        assert paper.popaccu_posteriors(self.ONE, self.DEFAULT) == {t("a"): 0.8}
        assert kernel_posteriors(PopAccuKernel(), self.ONE, self.DEFAULT) == {t("a"): 0.8}
        assert_close(
            kernel_posteriors(AccuKernel(), self.ONE, self.DEFAULT),
            {t("a"): 0.8},
        )

    def test_two_agreeing_is_about_094(self):
        oracle = paper.popaccu_posteriors(self.AGREEING, self.DEFAULT)
        assert oracle[t("a")] == pytest.approx(0.64 / 0.68, abs=TOL)
        assert abs(oracle[t("a")] - 0.94) < 0.01
        assert_close(kernel_posteriors(PopAccuKernel(), self.AGREEING, self.DEFAULT), oracle)

    def test_two_conflicting_is_about_05(self):
        """The Figure 9 valley: each side 0.16 / (0.16 + 0.16 + 0.01)."""
        oracle = paper.popaccu_posteriors(self.CONFLICTING, self.DEFAULT)
        for value in (t("a"), t("b")):
            assert oracle[value] == pytest.approx(0.16 / 0.33, abs=TOL)
            assert abs(oracle[value] - 0.5) < 0.02
        assert_close(
            kernel_posteriors(PopAccuKernel(), self.CONFLICTING, self.DEFAULT), oracle
        )


class TestOneItem:
    @given(claim_matrices(), st.integers(min_value=4, max_value=1000))
    @settings(max_examples=200, deadline=None)
    def test_accu(self, matrix, n_false):
        claims, accuracies = matrix
        assert_close(
            kernel_posteriors(AccuKernel(n_false), claims, accuracies),
            paper.accu_posteriors(claims, accuracies, n_false),
        )

    @given(claim_matrices())
    @settings(max_examples=200, deadline=None)
    def test_popaccu(self, matrix):
        claims, accuracies = matrix
        assert_close(
            kernel_posteriors(PopAccuKernel(), claims, accuracies),
            paper.popaccu_posteriors(claims, accuracies),
        )

    @given(claim_matrices())
    @settings(max_examples=200, deadline=None)
    def test_vote(self, matrix):
        claims, accuracies = matrix
        assert_close(
            kernel_posteriors(VoteKernel(), claims, accuracies),
            paper.vote_posteriors(claims),
        )

    def test_more_observed_values_than_the_domain_is_a_deviation(self):
        """k > N + 1 is outside the model (the oracle refuses it); ``src/``
        counts the unobserved values as max(N + 1 − k, 0)."""
        claims = {t(f"v{i}"): {(f"S{i}",)} for i in range(4)}
        accuracies = {(f"S{i}",): 0.8 for i in range(4)}
        with pytest.raises(ValueError, match="exceed"):
            paper.accu_posteriors(claims, accuracies, 2)
        posteriors = kernel_posteriors(AccuKernel(2), claims, accuracies)
        assert sum(posteriors.values()) == pytest.approx(1.0, abs=TOL)


class TestFuse:
    """Three rounds of each ``serial`` fuser against the oracle's loop."""

    @pytest.mark.parametrize("method", ["vote", "accu", "popaccu"])
    @given(drawn=claim_items(max_items=3))
    @settings(max_examples=60, deadline=None)
    def test_three_rounds(self, method, drawn):
        items, _accuracies = drawn
        fuser = {"vote": vote, "accu": accu, "popaccu": popaccu}[method](
            FusionConfig(max_rounds=3, convergence_tol=0.0)
        )
        result = fuser.fuse(FusionInput.from_columns(columnar_of(*items)))
        by_item = {next(iter(claims)).data_item: claims for claims in items}
        probabilities, accuracies = paper.fuse(by_item, method, 3, bounds=CLAMP)
        assert_close(
            result.probabilities,
            {triple: p for (_item, triple), p in probabilities.items()},
        )
        if method != "vote":
            assert_close(result.accuracies, accuracies)
