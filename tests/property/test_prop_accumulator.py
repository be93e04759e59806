"""Property-based accumulator parity over adversarial strings.

``ClaimAccumulator`` orders rows and provenances through string ranks and
radix-combined integer keys; ``ColumnarClaims.from_items`` sorts the
objects themselves.  The two must agree for any strings — separators
inside fields, non-ASCII code points, a subject that is a prefix of
another (where item-major and canonical-string order part ways), and the
``pattern=None`` spelling ``"<extractor>:-"`` colliding with a literal
pattern of the same text.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extract.records import ExtractionRecord
from repro.fusion.observations import ClaimAccumulator
from repro.fusion.provenance import Granularity, provenance_key
from repro.kb.triples import Triple
from repro.kb.values import EntityRef, NumberValue, StringValue
from tests.oracle.columns import assert_columns_equal, reference_columns

EXTRACTORS = ["E1", "E|2", "Éx", "E"]
# No "|" in subjects / predicates: it would let two distinct triples share
# a canonical string, and sorted() over such a tie has no defined order.
SUBJECTS = ["a", "ab", "/m/é", "/m/1"]
PREDICATES = ["x", "y", "t/t/p"]
OBJECTS = [
    StringValue("v"),
    StringValue("v|w"),
    StringValue("ü"),
    EntityRef("/m/1"),
    EntityRef("v"),
    NumberValue(2),
]
URLS = ["http://s1/p", "http://s1/p|q", "http://s2/ü", "http://s10/p"]
SITES = ["s1", "s10", "s|1", "ß"]
PATTERNS = [None, "E1:-", "E:-", "p|1", "π", "p"]

records_strategy = st.lists(
    st.builds(
        ExtractionRecord,
        triple=st.builds(
            Triple,
            st.sampled_from(SUBJECTS),
            st.sampled_from(PREDICATES),
            st.sampled_from(OBJECTS),
        ),
        extractor=st.sampled_from(EXTRACTORS),
        url=st.sampled_from(URLS),
        site=st.sampled_from(SITES),
        content_type=st.just("TXT"),
        pattern=st.sampled_from(PATTERNS),
    ),
    max_size=40,
)


@given(records_strategy, st.integers(min_value=1, max_value=7))
@settings(max_examples=150, deadline=None)
def test_accumulator_equals_reference_layout(records, chunk_size):
    accumulator = ClaimAccumulator(Granularity.EXTRACTOR_URL)
    for start in range(0, len(records), chunk_size):
        accumulator.add_records(records[start : start + chunk_size])
    assert accumulator.unique_triples() == sorted(
        {record.triple for record in records}
    )
    for granularity in Granularity:
        matrix, expected = reference_columns(records, granularity)
        built = accumulator.build(granularity)
        assert_columns_equal(built, expected)
        assert [built.triples[r] for r in accumulator.arrival_rows(built).tolist()] == [
            triple for triple_map in matrix.items.values() for triple in triple_map
        ]


def test_missing_pattern_collides_with_its_literal_spelling():
    triple = Triple("a", "x", StringValue("v"))
    implicit = ExtractionRecord(triple, "E1", "u", "s", "TXT", pattern=None)
    literal = ExtractionRecord(triple, "E1", "u", "s", "TXT", pattern="E1:-")
    other = ExtractionRecord(triple, "E", "u", "s", "TXT", pattern=None)
    granularity = Granularity.EXTRACTOR_PATTERN_ONLY
    assert provenance_key(implicit, granularity) == provenance_key(literal, granularity)
    accumulator = ClaimAccumulator(granularity)
    accumulator.add_records([implicit, literal, other])
    cols = accumulator.build()
    assert cols.provenances == [("E1:-",), ("E:-",)]
    assert np.array_equal(cols.claim_prov, [0, 1])
