"""The exact kernels equal the dict posteriors they replaced, bit for bit.

``exact_round`` of ``AccuKernel`` / ``PopAccuKernel`` / ``VoteKernel``
scores every data item of a round over the claim columns; the dict forms
in ``tests/oracle/posteriors.py`` score one item from ``{triple:
provenances}`` and ``{provenance: accuracy}``.  They must agree
**exactly** — ``==`` on every float, never approx — because ``serial``'s
bitwise contract and the parent-computed fingerprints rest on the exact
kernels performing the same float operations in the same order.  That
holds per item inside a multi-item round too, under the round's active
mask, sampling keep-mask and coverage filter, and on a slice of item ids
(the θ-rescue's input).  :func:`~repro.fusion.kernels.ordered_segment_sums`,
which carries every one of those float sums, is held to the
``total += v`` loop it stands for.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion.accu import AccuKernel
from repro.fusion.kernels import ACC_CEIL, ACC_FLOOR, ordered_segment_sums
from repro.fusion.popaccu import PopAccuKernel
from repro.fusion.vote import VoteKernel
from repro.kb.triples import Triple
from repro.kb.values import StringValue
from tests.oracle.posteriors import (
    accu_item_posteriors,
    kernel_posteriors,
    popaccu_item_posteriors,
    vote_item_posteriors,
)
from tests.property.test_prop_fusion import claim_matrices
from tests.property.test_prop_kernels import acc_array, columnar_of

#: Accuracies anywhere in [0, 1], with the clamp bounds and the interval's
#: ends drawn often.
ACCURACIES = st.one_of(
    st.sampled_from([0.0, ACC_FLOOR, ACC_CEIL, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def single_row(n_provs: int, accuracies: list[float]):
    triple = Triple("/m/1", "t/t/p", StringValue("only"))
    provs = [(f"S{i}",) for i in range(n_provs)]
    return {triple: set(provs)}, dict(zip(provs, accuracies))


class TestScalarKernelsEqualTheDictForms:
    """One item, every provenance active (:func:`kernel_posteriors`)."""

    @given(claim_matrices(ACCURACIES), st.integers(min_value=1, max_value=1000))
    @settings(max_examples=200, deadline=None)
    def test_accu(self, matrix, n_false):
        claims, accuracies = matrix
        assert kernel_posteriors(
            AccuKernel(n_false), claims, accuracies
        ) == accu_item_posteriors(claims, accuracies, n_false)

    @given(claim_matrices(ACCURACIES))
    @settings(max_examples=200, deadline=None)
    def test_popaccu(self, matrix):
        claims, accuracies = matrix
        assert kernel_posteriors(
            PopAccuKernel(), claims, accuracies
        ) == popaccu_item_posteriors(claims, accuracies)

    @given(claim_matrices(ACCURACIES))
    @settings(max_examples=100, deadline=None)
    def test_vote(self, matrix):
        claims, accuracies = matrix
        assert kernel_posteriors(VoteKernel(), claims, accuracies) == (
            vote_item_posteriors(claims, accuracies)
        )

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(ACCURACIES, min_size=n, max_size=n))
        ),
        st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_row_items(self, drawn, n_false):
        claims, accuracies = single_row(*drawn)
        assert kernel_posteriors(
            AccuKernel(n_false), claims, accuracies
        ) == accu_item_posteriors(claims, accuracies, n_false)
        assert kernel_posteriors(
            PopAccuKernel(), claims, accuracies
        ) == popaccu_item_posteriors(claims, accuracies)
        assert kernel_posteriors(VoteKernel(), claims, accuracies) == {
            next(iter(claims)): 1.0
        }

    def test_empty_item(self):
        for kernel in (AccuKernel(), PopAccuKernel(), VoteKernel()):
            assert kernel_posteriors(kernel, {}, {}) == {}


@st.composite
def claim_items(draw, accuracy=ACCURACIES, max_items=4):
    """1–``max_items`` data items (``/m/0``, ``/m/1``, …) over one shared
    provenance pool: ``(items, accuracies)``, each item a
    ``{triple: provenances}`` dict."""
    n_items = draw(st.integers(1, max_items))
    drawn = [draw(claim_matrices(accuracy)) for _ in range(n_items)]
    accuracies: dict = {}
    items = []
    for i, (claims, item_accuracies) in enumerate(drawn):
        items.append(
            {Triple(f"/m/{i}", t.predicate, t.obj): provs for t, provs in claims.items()}
        )
        for prov, accuracy in item_accuracies.items():
            accuracies.setdefault(prov, accuracy)
    return items, accuracies


@st.composite
def claim_rounds(draw):
    """One round over :func:`claim_items`: the claim columns, accuracies,
    an active mask, a claim keep-mask (or None), the coverage filter flag
    and a subset of item ids."""
    items, accuracies = draw(claim_items())
    cols = columnar_of(*items)
    n_provs, n_claims = len(cols.provenances), cols.n_claims
    active = np.array(draw(st.lists(st.booleans(), min_size=n_provs, max_size=n_provs)))
    keep = draw(st.none() | st.lists(st.booleans(), min_size=n_claims, max_size=n_claims))
    subset = draw(st.lists(st.sampled_from(range(cols.n_items)), unique=True, min_size=1))
    return (
        cols, accuracies, active, None if keep is None else np.array(keep),
        draw(st.booleans()), sorted(subset),
    )


def reference_round(cols, item_posteriors, accuracies, active, keep, require_repeated):
    """Each item's dict posteriors over its active, kept claims — Stage
    I's filters spelled out item by item."""
    expected = {}
    for j in range(cols.n_items):
        claims = {}
        for r in range(cols.item_ptr[j], cols.item_ptr[j + 1]):
            provs = {
                cols.provenances[cols.claim_prov[c]]
                for c in range(cols.row_ptr[r], cols.row_ptr[r + 1])
                if active[cols.claim_prov[c]] and (keep is None or keep[c])
            }
            if provs:
                claims[cols.triples[r]] = provs
        if claims and not (
            require_repeated and max(map(len, claims.values())) < 2
        ):
            expected.update(item_posteriors(claims, accuracies))
    return expected


def scored_dict(triples_of_rows, result):
    return {
        triples_of_rows[r]: float(result.posteriors[r])
        for r in np.flatnonzero(result.scored).tolist()
    }


def assert_exact_round(kernel, item_posteriors, drawn):
    cols, accuracies, active, keep, require_repeated, subset = drawn
    acc = acc_array(cols, accuracies)
    expected = reference_round(cols, item_posteriors, accuracies, active, keep, require_repeated)
    whole = kernel.exact_round(cols, acc, active, require_repeated, keep)
    assert scored_dict(cols.triples, whole) == expected
    part = cols.slice_items(subset)
    sliced = kernel.exact_round(
        part, acc, active, require_repeated, None if keep is None else keep[part.claims]
    )
    wanted = {cols.items[j] for j in subset}
    assert scored_dict([cols.triples[r] for r in part.rows.tolist()], sliced) == {
        triple: p for triple, p in expected.items() if triple.data_item in wanted
    }


class TestExactRoundEqualsTheDictForms:
    """Whole rounds: masks, the coverage filter and item-id slices."""

    @given(claim_rounds(), st.integers(min_value=1, max_value=1000))
    @settings(max_examples=200, deadline=None)
    def test_accu(self, drawn, n_false):
        assert_exact_round(
            AccuKernel(n_false),
            lambda claims, acc: accu_item_posteriors(claims, acc, n_false),
            drawn,
        )

    @given(claim_rounds())
    @settings(max_examples=200, deadline=None)
    def test_popaccu(self, drawn):
        assert_exact_round(PopAccuKernel(), popaccu_item_posteriors, drawn)

    @given(claim_rounds())
    @settings(max_examples=100, deadline=None)
    def test_vote(self, drawn):
        assert_exact_round(VoteKernel(), vote_item_posteriors, drawn)

    def test_item_with_every_provenance_inactive(self):
        """An item whose provenances are all inactive scores nothing; its
        neighbour scores exactly as alone."""
        quiet = {Triple("/m/0", "t/t/p", StringValue("a")): {("Q1",), ("Q2",)}}
        loud = {
            Triple("/m/1", "t/t/p", StringValue("a")): {("S1",), ("S2",)},
            Triple("/m/1", "t/t/p", StringValue("b")): {("S3",)},
        }
        accuracies = {("Q1",): 0.9, ("Q2",): 0.7, ("S1",): 0.8, ("S2",): 0.6, ("S3",): 0.3}
        cols = columnar_of(quiet, loud)
        active = np.array([not prov[0].startswith("Q") for prov in cols.provenances])
        for kernel, item_posteriors in (
            (AccuKernel(), lambda c, a: accu_item_posteriors(c, a, 100)),
            (PopAccuKernel(), popaccu_item_posteriors),
            (VoteKernel(), vote_item_posteriors),
        ):
            result = kernel.exact_round(cols, acc_array(cols, accuracies), active, False)
            assert scored_dict(cols.triples, result) == item_posteriors(loud, accuracies)


def loop_sum(segment, start=0.0):
    total = start
    for value in segment:
        total += value
    return total


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestOrderedSegmentSums:
    @given(st.lists(st.lists(FINITE, max_size=12), max_size=8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_loop(self, segments, data):
        initial = data.draw(
            st.none() | st.lists(FINITE, min_size=len(segments), max_size=len(segments))
        )
        starts = [0.0] * len(segments) if initial is None else initial
        expected = np.array(
            [loop_sum(segment, start) for segment, start in zip(segments, starts)],
            dtype=np.float64,
        )
        with np.errstate(over="ignore"):  # the loop overflows to inf silently
            got = ordered_segment_sums(
                np.array([v for segment in segments for v in segment], dtype=np.float64),
                [len(segment) for segment in segments],
                None if initial is None else np.array(initial),
            )
        assert got.tobytes() == expected.tobytes()

    def test_left_to_right_not_compensated(self):
        """``[1e16, 1.0, -1e16]`` sums to 0.0 left to right (the 1.0 is
        absorbed); a compensated sum would give 1.0."""
        values = np.array([1e16, 1.0, -1e16, 5.0])
        got = ordered_segment_sums(values, [3, 0, 1], np.array([0.0, 2.5, 0.0]))
        assert got.tolist() == [0.0, 2.5, 5.0]
        assert math.fsum([1e16, 1.0, -1e16]) == 1.0
