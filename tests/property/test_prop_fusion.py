"""Property-based tests for the fusion posterior math.

These check the algebraic invariants the paper's methods rely on, over
arbitrary claim matrices: probabilities live in [0, 1], per-item mass is
bounded, agreement helps, and POPACCU's signature behaviours hold for any
accuracy level — not just the defaults exercised by the unit tests.  The
same claim-set strategy also feeds whole fuses, where ``serial`` must
equal the dict-engine oracle (``tests/oracle``) exactly.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion import FusionConfig, FusionInput, accu, popaccu, vote
from repro.fusion.accu import AccuKernel
from repro.fusion.popaccu import PopAccuKernel
from repro.kb.triples import Triple
from repro.kb.values import StringValue
from tests.oracle.columns import columns_from_items
from tests.oracle.fusion import assert_equal_in_order, oracle_fuse
from tests.oracle.posteriors import kernel_posteriors


def accu_posteriors(claims, accuracies, n_false):
    return kernel_posteriors(AccuKernel(n_false), claims, accuracies)


def popaccu_posteriors(claims, accuracies):
    return kernel_posteriors(PopAccuKernel(), claims, accuracies)


def t(name: str) -> Triple:
    return Triple("/m/1", "t/t/p", StringValue(name))


@st.composite
def claim_matrices(
    draw, accuracy=st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
):
    """A random data item: values, provenances, accuracies (each drawn
    from ``accuracy``)."""
    n_values = draw(st.integers(min_value=1, max_value=5))
    n_provs = draw(st.integers(min_value=n_values, max_value=12))
    accuracies = {(f"S{i}",): draw(accuracy) for i in range(n_provs)}
    # Partition provenances over values so every value has >= 1 claim.
    assignment = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n_values - 1),
                min_size=n_provs - n_values,
                max_size=n_provs - n_values,
            )
        )
        + list(range(n_values))
    )
    claims: dict = {}
    for prov_index, value_index in enumerate(assignment):
        claims.setdefault(t(f"v{value_index}"), set()).add((f"S{prov_index}",))
    return claims, accuracies


class TestAccuProperties:
    @given(claim_matrices(), st.integers(min_value=1, max_value=1000))
    @settings(max_examples=150, deadline=None)
    def test_posteriors_are_probabilities(self, matrix, n_false):
        claims, accuracies = matrix
        posteriors = accu_posteriors(claims, accuracies, n_false)
        assert set(posteriors) == set(claims)
        for probability in posteriors.values():
            assert 0.0 <= probability <= 1.0
        assert sum(posteriors.values()) <= 1.0 + 1e-9

    @given(claim_matrices())
    @settings(max_examples=100, deadline=None)
    def test_more_support_never_hurts(self, matrix):
        """Adding an extra supporting provenance (accuracy > 1/(N+1), i.e.
        positive vote count) cannot lower a value's posterior."""
        claims, accuracies = matrix
        target = next(iter(claims))
        before = accu_posteriors(claims, accuracies, 100)[target]
        extra = ("S_extra",)
        accuracies2 = dict(accuracies)
        accuracies2[extra] = 0.9
        claims2 = {k: set(v) for k, v in claims.items()}
        claims2[target].add(extra)
        after = accu_posteriors(claims2, accuracies2, 100)[target]
        assert after >= before - 1e-9

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_source_posterior_equals_accuracy(self, accuracy, n_false):
        """With one source, ACCU's posterior is exactly the accuracy, for
        any A and N: e^τ / (e^τ + N) with τ = ln(N·A/(1−A)) simplifies to A."""
        posteriors = accu_posteriors({t("a"): {("S",)}}, {("S",): accuracy}, n_false)
        assert posteriors[t("a")] == pytest.approx(accuracy, abs=1e-9)


class TestPopAccuProperties:
    @given(claim_matrices())
    @settings(max_examples=150, deadline=None)
    def test_posteriors_are_probabilities(self, matrix):
        claims, accuracies = matrix
        posteriors = popaccu_posteriors(claims, accuracies)
        assert set(posteriors) == set(claims)
        for probability in posteriors.values():
            assert 0.0 <= probability <= 1.0
        # Mass may be < 1 (the OTHER candidate holds the rest) but never > 1.
        assert sum(posteriors.values()) <= 1.0 + 1e-9

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=100, deadline=None)
    def test_single_provenance_sticks_to_accuracy(self, accuracy):
        """The Figure 9 'valley' generator: a lone provenance's claim keeps
        exactly the provenance's accuracy as its probability."""
        posteriors = popaccu_posteriors({t("a"): {("S",)}}, {("S",): accuracy})
        assert posteriors[t("a")] == pytest.approx(accuracy, abs=1e-9)

    @given(claim_matrices())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_items_get_symmetric_posteriors(self, matrix):
        """Renaming values cannot change the posterior multiset."""
        claims, accuracies = matrix
        renamed = {
            Triple("/m/1", "t/t/p", StringValue("renamed_" + tr.obj.text)): provs
            for tr, provs in claims.items()
        }
        original = sorted(popaccu_posteriors(claims, accuracies).values())
        rerun = sorted(popaccu_posteriors(renamed, accuracies).values())
        assert original == pytest.approx(rerun)

    @given(
        st.integers(min_value=2, max_value=10),
        st.floats(min_value=0.55, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_unanimity_beats_any_split(self, n_provs, accuracy):
        """All provenances agreeing yields a higher posterior for the value
        than the same provenances split across two values."""
        accuracies = {(f"S{i}",): accuracy for i in range(n_provs)}
        unanimous = popaccu_posteriors(
            {t("a"): {(f"S{i}",) for i in range(n_provs)}}, accuracies
        )[t("a")]
        half = n_provs // 2 or 1
        split = popaccu_posteriors(
            {
                t("a"): {(f"S{i}",) for i in range(half)},
                t("b"): {(f"S{i}",) for i in range(half, n_provs)},
            },
            accuracies,
        )[t("a")]
        assert unanimous >= split - 1e-9


class TestCrossMethodProperties:
    @given(claim_matrices())
    @settings(max_examples=100, deadline=None)
    def test_methods_agree_on_ranking_of_dominant_value(self, matrix):
        """Whatever the parameters, the value with the most provenances is
        never ranked strictly last by either Bayesian method when all
        provenances share one accuracy."""
        claims, _ = matrix
        if len(claims) < 2:
            return
        accuracies = {
            prov: 0.8 for provs in claims.values() for prov in provs
        }
        top = max(claims, key=lambda tr: len(claims[tr]))
        bottom = min(claims, key=lambda tr: len(claims[tr]))
        if len(claims[top]) == len(claims[bottom]):
            return
        for fn in (
            lambda: accu_posteriors(claims, accuracies, 100),
            lambda: popaccu_posteriors(claims, accuracies),
        ):
            posteriors = fn()
            assert posteriors[top] >= posteriors[bottom] - 1e-9


class TestSerialEqualsOracle:
    @given(
        st.lists(claim_matrices(), min_size=1, max_size=3),
        st.sampled_from([vote, accu, popaccu]),
        st.booleans(),
        st.sampled_from([None, 0.5]),
        st.sampled_from([None, 1, 3]),
    )
    @settings(max_examples=120, deadline=None)
    def test_whole_fuse_matches_the_dict_engine(
        self, matrices, preset, by_coverage, theta, sample_limit
    ):
        """Several drawn data items (the i-th re-subjected to ``/m/i``; its
        drawn accuracies are not used) fused ``serial`` and through the
        oracle: every output equal, iteration order included."""
        items_map = {}
        for i, (claims, _accuracies) in enumerate(matrices):
            for triple, provs in claims.items():
                moved = Triple(f"/m/{i}", triple.predicate, triple.obj)
                items_map.setdefault(moved.data_item, {})[moved] = provs
        config = FusionConfig(
            filter_by_coverage=by_coverage,
            min_accuracy=theta,
            sample_limit=sample_limit,
        )
        cols = columns_from_items(items_map, config.granularity)
        fuser = preset(config)
        assert_equal_in_order(
            fuser.fuse(FusionInput.from_columns(cols)),
            oracle_fuse(fuser, FusionInput.from_columns(cols)),
        )
