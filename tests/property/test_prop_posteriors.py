"""The id-based scalar kernels equal the dict posteriors they replaced.

``AccuKernel`` / ``PopAccuKernel`` / ``VoteKernel`` score one data item
from lists of row accuracies (rows and provenances in canonical order);
the dict forms in ``tests/oracle/posteriors.py`` score it from
``{triple: provenances}`` and ``{provenance: accuracy}``.  They must agree
**exactly** — ``==`` on every float, never approx — because ``serial``'s
bitwise contract and the parent-computed fingerprints rest on the scalar
kernels performing the same float operations in the same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion.accu import AccuKernel
from repro.fusion.kernels import ACC_CEIL, ACC_FLOOR
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
            assert kernel([]) == []
