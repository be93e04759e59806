"""The record wire codec round-trips exactly, property-based.

``RECORD_WIRE_CODEC.decode(encode(records))`` must give back every record
field by field, types included: a ``bool`` stays a ``bool`` (not a numpy
bool or an int), a ``None`` stays ``None``, an ``int`` stays an ``int``
and a confidence keeps its float bits (``-0.0`` included).  The
extraction job's output, one table per page window held as
:class:`~repro.extract.records.RecordTables`, must give back the same
record stream, empty windows included.
"""

import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.extract.records import (
    RECORD_WIRE_CODEC,
    ErrorKind,
    ExtractionDebug,
    ExtractionRecord,
    RecordTables,
    records_to_wire,
)
from repro.kb.triples import Triple
from repro.kb.values import DateValue, EntityRef, NumberValue, StringValue

INT32 = (-(2**31), 2**31 - 1)

# Short texts from a small alphabet, so strings and triples repeat.
texts = st.text(alphabet="ab:|/é", max_size=4)
keys = st.text(alphabet="ab:/é", max_size=4)  # no "|": subject, predicate

values = st.one_of(
    st.builds(EntityRef, texts),
    st.builds(StringValue, texts),
    st.builds(NumberValue, st.floats(allow_nan=False)),
    st.builds(DateValue, texts),
)
debugs = st.builds(
    ExtractionDebug,
    asserted_index=st.none() | st.integers(*INT32),
    error_kind=st.sampled_from((None, *ErrorKind)),
    source_error=st.booleans(),
    span_corrupted=st.booleans(),
    slot_mismatch=st.booleans(),
)
records = st.builds(
    ExtractionRecord,
    triple=st.builds(Triple, keys, keys, values),
    extractor=texts,
    url=texts,
    site=texts,
    content_type=texts,
    pattern=st.none() | texts,
    confidence=st.none() | st.floats(allow_nan=False),
    debug=st.none() | debugs,
)


def _same_value(expected, actual) -> None:
    assert type(actual) is type(expected)
    if isinstance(expected, float):
        assert struct.pack("<d", actual) == struct.pack("<d", expected)
    else:
        assert actual == expected


def assert_same_record(expected: ExtractionRecord, actual: ExtractionRecord) -> None:
    """Field by field, types and float bits included."""
    assert type(actual) is ExtractionRecord
    assert type(actual.triple) is Triple
    assert type(actual.triple.obj) is type(expected.triple.obj)
    assert actual.triple == expected.triple
    assert actual.triple.canonical() == expected.triple.canonical()
    for field in ("extractor", "url", "site", "content_type", "pattern", "confidence"):
        _same_value(getattr(expected, field), getattr(actual, field))
    if expected.debug is None:
        assert actual.debug is None
        return
    assert type(actual.debug) is ExtractionDebug
    for field in ExtractionDebug.__slots__:
        _same_value(getattr(expected.debug, field), getattr(actual.debug, field))


def _record(**kwargs) -> ExtractionRecord:
    defaults = dict(
        triple=Triple("/m/1", "p/t/a", StringValue("x")),
        extractor="TXT1",
        url="http://s.org/p1",
        site="s.org",
        content_type="TXT",
    )
    return ExtractionRecord(**(defaults | kwargs))


#: Every value kind, every ErrorKind, ``None`` in every optional field and
#: a ``-0.0`` confidence, in one shard.
EVERY_KIND = [
    _record(triple=Triple("/m/2", "p/t/b", EntityRef("/m/9"))),
    _record(triple=Triple("/m/3", "p/t/c", NumberValue(1986.5)), confidence=-0.0),
    _record(triple=Triple("/m/4", "p/t/d", DateValue("1962-07-03")), confidence=0.7),
    _record(pattern="TXT1:t.p", debug=ExtractionDebug(asserted_index=None)),
    *(
        _record(debug=ExtractionDebug(3, kind, True, False, True))
        for kind in ErrorKind
    ),
]


class TestRecordCodec:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(records, max_size=30))
    @example([])
    @example(EVERY_KIND)
    def test_round_trip_field_by_field(self, shard):
        decoded = RECORD_WIRE_CODEC.decode(RECORD_WIRE_CODEC.encode(shard))
        assert len(decoded) == len(shard)
        for expected, actual in zip(shard, decoded):
            assert_same_record(expected, actual)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(records, max_size=4), max_size=8))
    @example([])
    @example([[], EVERY_KIND[:2], [], EVERY_KIND[2:], []])
    def test_window_tables_round_trip_with_empty_windows(self, per_window):
        tables = RecordTables([records_to_wire(window) for window in per_window])
        expected = [record for window in per_window for record in window]
        assert len(tables) == len(expected)
        decoded = list(tables)
        assert len(decoded) == len(expected)
        for expected_record, actual in zip(expected, decoded):
            assert_same_record(expected_record, actual)
