"""The reference claim-column layout and the field-for-field comparison.

``ColumnarClaims.from_items`` over the record-built dict views spells the
canonical layout out object by object; ``ClaimAccumulator`` (the one
production builder) must reproduce it exactly.
"""

from __future__ import annotations

import numpy as np

from repro.fusion.matrix import NUMERIC_COLUMNS
from repro.fusion.observations import ClaimMatrix, ColumnarClaims

__all__ = ["assert_columns_equal", "reference_columns"]


def reference_columns(records, granularity) -> tuple[ClaimMatrix, ColumnarClaims]:
    """The records' dict-view matrix and the layout spelled out from it —
    not ``matrix.columnar()``, which *is* the accumulator."""
    matrix = ClaimMatrix.build(records, granularity)
    return matrix, ColumnarClaims.from_items(matrix.items, granularity)


def assert_columns_equal(actual: ColumnarClaims, expected: ColumnarClaims) -> None:
    assert actual.granularity == expected.granularity
    assert list(actual.items) == list(expected.items)
    assert list(actual.triples) == list(expected.triples)
    assert list(actual.provenances) == list(expected.provenances)
    for name in NUMERIC_COLUMNS:
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert np.array_equal(actual.canonical_rank(), expected.canonical_rank())
