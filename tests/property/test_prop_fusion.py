"""Property-based tests for the fusion posterior math.

These check the algebraic invariants the paper's methods rely on, over
arbitrary claim matrices: probabilities live in [0, 1], per-item mass is
bounded, agreement helps, and POPACCU's signature behaviours hold for any
accuracy level — not just the defaults exercised by the unit tests.  The
same claim-set strategy also feeds whole fuses, where ``serial`` must
equal the dict-engine oracle (``tests/oracle``) exactly, and the
metamorphic properties — value relabelling, reducer-input sampling
(``L``) — that need no oracle at all.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extract.records import ExtractionRecord
from repro.fusion import FusionConfig, FusionInput, accu, popaccu, vote
from repro.fusion.accu import AccuKernel
from repro.fusion.popaccu import PopAccuKernel
from repro.fusion.runner import run_bayesian_fusion
from repro.fusion.vote import VoteKernel
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
        """Several drawn data items (:func:`_items_map`) fused ``serial``
        and through the oracle: every output equal, iteration order
        included."""
        config = FusionConfig(
            filter_by_coverage=by_coverage,
            min_accuracy=theta,
            sample_limit=sample_limit,
        )
        cols = columns_from_items(_items_map(matrices), config.granularity)
        fuser = preset(config)
        assert_equal_in_order(
            fuser.fuse(FusionInput.from_columns(cols)),
            oracle_fuse(fuser, FusionInput.from_columns(cols)),
        )


def _items_map(matrices) -> dict:
    """Several drawn data items, the i-th re-subjected to ``/m/i`` (their
    drawn accuracies are not used): provenances recur across items."""
    items_map: dict = {}
    for i, (claims, _accuracies) in enumerate(matrices):
        for triple, provs in claims.items():
            moved = Triple(f"/m/{i}", triple.predicate, triple.obj)
            items_map.setdefault(moved.data_item, {})[moved] = provs
    return items_map


def _relabel(triple: Triple) -> Triple:
    """``v<k>`` -> ``w<9-k>``: a bijection on the drawn values (k <= 4)
    that reverses their canonical order inside every data item."""
    value = StringValue(f"w{9 - int(triple.obj.text[1:])}")
    return Triple(triple.subject, triple.predicate, value)


class TestRelabellingMetamorphic:
    @given(
        st.lists(claim_matrices(), min_size=1, max_size=4),
        st.sampled_from([vote, accu, popaccu]),
        st.sampled_from(["serial", "vectorized"]),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_relabelling_values_moves_no_posterior_or_accuracy(
        self, matrices, preset, backend, by_coverage
    ):
        """Renaming object values reorders each item's rows (and so every
        per-provenance sum) but is not evidence: each relabelled triple
        keeps its probability and each provenance its accuracy, to 1e-12.
        θ and L stay off — a threshold an ulp can flip, and a draw made in
        canonical order, are not invariant by design."""
        items_map = _items_map(matrices)
        relabelled = {
            item: {_relabel(triple): provs for triple, provs in claims.items()}
            for item, claims in items_map.items()
        }
        config = FusionConfig(backend=backend, filter_by_coverage=by_coverage)
        fuser = preset(config)

        def fuse(items):
            cols = columns_from_items(items, config.granularity)
            return fuser.fuse(FusionInput.from_columns(cols))

        base, moved = fuse(items_map), fuse(relabelled)
        assert moved.unpredicted == {_relabel(triple) for triple in base.unpredicted}
        assert set(moved.probabilities) == set(map(_relabel, base.probabilities))
        for triple, probability in base.probabilities.items():
            assert math.isclose(
                moved.probabilities[_relabel(triple)], probability,
                rel_tol=0, abs_tol=1e-12,
            )
        assert set(moved.accuracies) == set(base.accuracies)
        for prov, accuracy in base.accuracies.items():
            assert math.isclose(
                moved.accuracies[prov], accuracy, rel_tol=0, abs_tol=1e-12
            )


def _tracked_fuse(kernel, cols, config):
    return run_bayesian_fusion(
        FusionInput.from_columns(cols), config, kernel, "M", track_rounds=True
    )


KERNELS = [VoteKernel(), AccuKernel(), PopAccuKernel()]


class TestSamplingMetamorphic:
    """Properties of reducer-input sampling that need no oracle."""

    @given(
        st.lists(claim_matrices(), min_size=1, max_size=4),
        st.sampled_from(KERNELS),
        st.sampled_from(["serial", "vectorized"]),
        st.booleans(),
        st.sampled_from([None, 0.5]),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=120, deadline=None)
    def test_limit_at_least_every_group_is_no_sampling(
        self, matrices, kernel, backend, by_coverage, theta, slack
    ):
        """``L`` >= the largest Stage-I item and Stage-II provenance gives
        bitwise the same result as ``L = None``."""
        config = FusionConfig(
            backend=backend, filter_by_coverage=by_coverage, min_accuracy=theta,
            sample_limit=None,
        )
        cols = columns_from_items(_items_map(matrices), config.granularity)
        largest = max(
            int(cols.item_claim_counts().max()), int(cols.prov_row_counts().max())
        )
        unbounded = _tracked_fuse(kernel, cols, config)
        bounded = _tracked_fuse(
            kernel, cols, replace(config, sample_limit=largest + slack)
        )
        assert list(bounded.probabilities.items()) == list(unbounded.probabilities.items())
        assert list(bounded.accuracies.items()) == list(unbounded.accuracies.items())
        assert bounded.unpredicted == unbounded.unpredicted
        assert (bounded.rounds, bounded.converged) == (unbounded.rounds, unbounded.converged)
        assert bounded.diagnostics.pop("sampling") == "canonical-order"
        assert unbounded.diagnostics.pop("sampling") == "unbounded"
        assert bounded.diagnostics == unbounded.diagnostics

    @given(
        st.lists(claim_matrices(), min_size=1, max_size=4),
        st.sampled_from(KERNELS),
        st.sampled_from(["serial", "vectorized"]),
        st.booleans(),
        st.sampled_from([None, 0.5]),
        st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=120, deadline=None)
    def test_rounds_stay_probabilities(
        self, matrices, kernel, backend, by_coverage, theta, sample_limit
    ):
        """Every round snapshot's single-truth posteriors sum to at most 1
        per data item, and every final accuracy lies in [0, 1] — sampled
        or not."""
        config = FusionConfig(
            backend=backend, filter_by_coverage=by_coverage, min_accuracy=theta,
            sample_limit=sample_limit,
        )
        cols = columns_from_items(_items_map(matrices), config.granularity)
        result = _tracked_fuse(kernel, cols, config)
        for snapshot in result.diagnostics["round_probabilities"]:
            mass: dict = {}
            for triple, probability in snapshot.items():
                mass[triple.data_item] = mass.get(triple.data_item, 0.0) + probability
            assert all(total <= 1.0 + 1e-12 for total in mass.values()), mass
        assert all(0.0 <= accuracy <= 1.0 for accuracy in result.accuracies.values())

    @given(
        st.lists(claim_matrices(), min_size=1, max_size=4),
        st.sampled_from([vote, accu, popaccu]),
        st.sampled_from([1, 2, 3]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_sampled_vectorized_is_record_order_invariant(
        self, matrices, preset, sample_limit, rng
    ):
        """Sampled subsets are drawn in canonical order, so permuting the
        record stream (duplicates included) cannot move a single bit."""
        records = [
            ExtractionRecord(triple, "E", f"http://s/{prov[0]}", "s", "TXT")
            for provs_of in _items_map(matrices).values()
            for triple, provs in provs_of.items()
            for prov in sorted(provs)
            for _copy in range(1 + len(prov[0]) % 2)
        ]
        permuted = list(records)
        rng.shuffle(permuted)
        fuser = preset(FusionConfig(backend="vectorized", sample_limit=sample_limit))
        baseline = fuser.fuse(FusionInput(records))
        reordered = fuser.fuse(FusionInput(permuted))
        assert list(reordered.probabilities.items()) == list(baseline.probabilities.items())
        assert list(reordered.accuracies.items()) == list(baseline.accuracies.items())
        assert reordered.unpredicted == baseline.unpredicted
