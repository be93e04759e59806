"""Exact ↔ batched posterior parity, property-based.

The batched numpy kernels of :mod:`repro.fusion.kernels` must reproduce
the reference implementations (the dict forms of
``tests/oracle/posteriors.py``, which the ``src/`` exact kernels equal
bit for bit) to 1e-9 on
arbitrary claim matrices — including the awkward corners: a single
provenance, more observed values than ACCU's assumed domain (k > N),
unanimous items, multi-item batches, and empty inputs.  The sampling
keep-mask every kernel takes is held to the same oracle: a dropped claim
scores exactly like a claim that was never made.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion import kernels
from repro.kb.triples import Triple
from repro.kb.values import StringValue
from tests.oracle.columns import columns_from_items
from tests.oracle.posteriors import (
    accu_item_posteriors,
    popaccu_item_posteriors,
    vote_item_posteriors,
)

TOL = 1e-9


def t(name: str, subject: str = "/m/1") -> Triple:
    return Triple(subject, "t/t/p", StringValue(name))


@st.composite
def claim_matrices(draw, subject: str = "/m/1"):
    """A random data item: values, provenances, accuracies."""
    n_values = draw(st.integers(min_value=1, max_value=5))
    n_provs = draw(st.integers(min_value=n_values, max_value=12))
    accuracies = {
        (f"S{i}",): draw(
            st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
        )
        for i in range(n_provs)
    }
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
        claims.setdefault(t(f"v{value_index}", subject), set()).add((f"S{prov_index}",))
    return claims, accuracies


def columnar_of(*claim_dicts):
    """Build one ColumnarClaims batch from per-item claims dicts."""
    items_map: dict = {}
    for claims in claim_dicts:
        for triple, provs in claims.items():
            items_map.setdefault(triple.data_item, {}).setdefault(
                triple, set()
            ).update(provs)
    return columns_from_items(items_map)


def acc_array(cols, accuracies):
    return np.array([accuracies[p] for p in cols.provenances], dtype=np.float64)


def batch_as_dict(cols, round_result):
    return {
        cols.triples[r]: float(round_result.posteriors[r])
        for r in np.flatnonzero(round_result.scored)
    }


def assert_parity(scalar: dict, batched: dict):
    assert set(scalar) == set(batched)
    for triple, probability in scalar.items():
        assert batched[triple] == pytest.approx(probability, abs=TOL)


class TestAccuParity:
    @given(claim_matrices(), st.integers(min_value=1, max_value=1000))
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar(self, matrix, n_false):
        claims, accuracies = matrix
        cols = columnar_of(claims)
        batched = kernels.accu_round(
            cols, acc_array(cols, accuracies), np.ones(len(cols.provenances), bool), n_false
        )
        assert_parity(
            accu_item_posteriors(claims, accuracies, n_false),
            batch_as_dict(cols, batched),
        )

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_provenance(self, accuracy, n_false):
        claims = {t("a"): {("S",)}}
        accuracies = {("S",): accuracy}
        cols = columnar_of(claims)
        batched = kernels.accu_round(
            cols, acc_array(cols, accuracies), np.ones(1, bool), n_false
        )
        assert_parity(
            accu_item_posteriors(claims, accuracies, n_false),
            batch_as_dict(cols, batched),
        )

    def test_more_observed_values_than_domain(self):
        """k > N: the unobserved-value mass clamps at zero, both paths."""
        claims = {t(f"v{i}"): {(f"S{i}",)} for i in range(5)}
        accuracies = {(f"S{i}",): 0.6 + 0.05 * i for i in range(5)}
        for n_false in (1, 2, 3, 4):
            cols = columnar_of(claims)
            batched = kernels.accu_round(
                cols, acc_array(cols, accuracies), np.ones(5, bool), n_false
            )
            assert_parity(
                accu_item_posteriors(claims, accuracies, n_false),
                batch_as_dict(cols, batched),
            )


class TestPopAccuParity:
    @given(claim_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar(self, matrix):
        claims, accuracies = matrix
        cols = columnar_of(claims)
        batched = kernels.popaccu_round(
            cols, acc_array(cols, accuracies), np.ones(len(cols.provenances), bool)
        )
        assert_parity(
            popaccu_item_posteriors(claims, accuracies),
            batch_as_dict(cols, batched),
        )

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_single_provenance_sticks_to_accuracy(self, accuracy):
        claims = {t("a"): {("S",)}}
        cols = columnar_of(claims)
        batched = kernels.popaccu_round(
            cols, np.array([accuracy]), np.ones(1, bool)
        )
        assert batch_as_dict(cols, batched)[t("a")] == pytest.approx(
            accuracy, abs=TOL
        )

    @given(
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_unanimous_item(self, n_provs, accuracy):
        """A single observed value (empty rest-sum in the scalar loop)."""
        claims = {t("a"): {(f"S{i}",) for i in range(n_provs)}}
        accuracies = {(f"S{i}",): accuracy for i in range(n_provs)}
        cols = columnar_of(claims)
        batched = kernels.popaccu_round(
            cols, acc_array(cols, accuracies), np.ones(n_provs, bool)
        )
        assert_parity(
            popaccu_item_posteriors(claims, accuracies),
            batch_as_dict(cols, batched),
        )


class TestVoteParity:
    @given(claim_matrices())
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar(self, matrix):
        claims, _accuracies = matrix
        cols = columnar_of(claims)
        batched = kernels.vote_round(cols)
        assert_parity(vote_item_posteriors(claims), batch_as_dict(cols, batched))


class TestBatchStructure:
    @given(claim_matrices("/m/1"), claim_matrices("/m/2"), claim_matrices("/m/3"))
    @settings(max_examples=50, deadline=None)
    def test_multi_item_batch_equals_per_item_scalar(self, m1, m2, m3):
        """One batched call over three data items == three scalar calls."""
        all_claims = [m1[0], m2[0], m3[0]]
        accuracies: dict = {}
        # Rename provenances per item so accuracy maps do not collide.
        renamed = []
        for idx, (claims, accs) in enumerate((m1, m2, m3)):
            mapping = {p: (f"I{idx}_{p[0]}",) for p in accs}
            renamed.append(
                {tr: {mapping[p] for p in provs} for tr, provs in claims.items()}
            )
            accuracies.update({mapping[p]: a for p, a in accs.items()})
        cols = columnar_of(*renamed)
        batched = batch_as_dict(
            cols,
            kernels.popaccu_round(
                cols, acc_array(cols, accuracies), np.ones(len(cols.provenances), bool)
            ),
        )
        expected: dict = {}
        for claims in renamed:
            expected.update(popaccu_item_posteriors(claims, accuracies))
        assert_parity(expected, batched)

    def test_empty_batch(self):
        cols = columns_from_items({})
        assert cols.n_rows == 0 and cols.n_items == 0 and cols.n_claims == 0
        for round_result in (
            kernels.accu_round(cols, np.zeros(0), np.zeros(0, bool), 100),
            kernels.popaccu_round(cols, np.zeros(0), np.zeros(0, bool)),
            kernels.vote_round(cols),
        ):
            assert round_result.posteriors.shape == (0,)
            assert not round_result.scored.any()
        assert vote_item_posteriors({}) == {}

    def test_inactive_provenances_are_excluded(self):
        """Deactivating a provenance must match removing it from the claims."""
        claims = {t("a"): {("S0",), ("S1",)}, t("b"): {("S2",)}}
        accuracies = {("S0",): 0.7, ("S1",): 0.9, ("S2",): 0.6}
        cols = columnar_of(claims)
        active = np.array([p != ("S2",) for p in cols.provenances])
        batched = batch_as_dict(
            cols, kernels.popaccu_round(cols, acc_array(cols, accuracies), active)
        )
        reduced = {t("a"): {("S0",), ("S1",)}}
        assert_parity(popaccu_item_posteriors(reduced, accuracies), batched)


def stage1_rounds(cols, accuracies, keep=None):
    """Every batched Stage-I kernel's round, all provenances active."""
    acc = acc_array(cols, accuracies)
    active = np.ones(len(cols.provenances), bool)
    return {
        "accu": kernels.accu_round(cols, acc, active, 100, False, keep),
        "popaccu": kernels.popaccu_round(cols, acc, active, False, keep),
        "vote": kernels.vote_round(cols, active, False, keep),
    }


def claim_rows(cols):
    """The row of each claim."""
    return np.repeat(np.arange(cols.n_rows), np.diff(cols.row_ptr))


def bool_lists(size):
    return st.lists(st.booleans(), min_size=size, max_size=size)


class TestKeepMask:
    """Reducer-input sampling reaches the kernels as a trailing claim
    keep-mask: a dropped claim counts exactly like an absent one."""

    @given(claim_matrices())
    @settings(max_examples=60, deadline=None)
    def test_keeping_every_claim_is_no_mask(self, matrix):
        claims, accuracies = matrix
        cols = columnar_of(claims)
        unmasked = stage1_rounds(cols, accuracies)
        masked = stage1_rounds(cols, accuracies, np.ones(cols.n_claims, bool))
        for name, round_result in unmasked.items():
            assert np.array_equal(round_result.scored, masked[name].scored), name
            assert np.array_equal(
                round_result.posteriors, masked[name].posteriors
            ), name
        active = np.ones(len(cols.provenances), bool)
        stage2 = kernels.stage2_accuracies(cols, unmasked["popaccu"], active)
        kept = kernels.stage2_accuracies(
            cols, unmasked["popaccu"], active, np.ones(len(cols.prov_rows), bool)
        )
        assert np.array_equal(stage2[0], kept[0])
        assert np.array_equal(stage2[1], kept[1])

    @given(claim_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_dropped_claims_equal_removed_claims(self, matrix, data):
        claims, accuracies = matrix
        cols = columnar_of(claims)
        keep = np.array(data.draw(bool_lists(cols.n_claims)), dtype=bool)
        reduced: dict = {}
        for claim, row in enumerate(claim_rows(cols)):
            if keep[claim]:
                reduced.setdefault(cols.triples[row], set()).add(
                    cols.provenances[cols.claim_prov[claim]]
                )
        masked = stage1_rounds(cols, accuracies, keep)
        assert_parity(
            accu_item_posteriors(reduced, accuracies, 100),
            batch_as_dict(cols, masked["accu"]),
        )
        assert_parity(
            popaccu_item_posteriors(reduced, accuracies),
            batch_as_dict(cols, masked["popaccu"]),
        )
        assert_parity(vote_item_posteriors(reduced), batch_as_dict(cols, masked["vote"]))

    @given(claim_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_stage2_mask_drops_rows_from_the_mean(self, matrix, data):
        claims, accuracies = matrix
        cols = columnar_of(claims)
        keep = np.array(data.draw(bool_lists(len(cols.prov_rows))), dtype=bool)
        round_result = stage1_rounds(cols, accuracies)["popaccu"]
        active = np.ones(len(cols.provenances), bool)
        new_acc, updated = kernels.stage2_accuracies(cols, round_result, active, keep)
        for prov in range(len(cols.provenances)):
            span = range(cols.prov_ptr[prov], cols.prov_ptr[prov + 1])
            kept = [
                float(round_result.posteriors[cols.prov_rows[i]])
                for i in span
                if keep[i] and round_result.scored[cols.prov_rows[i]]
            ]
            assert bool(updated[prov]) == bool(kept)
            if kept:
                assert new_acc[prov] == pytest.approx(sum(kept) / len(kept), abs=TOL)
