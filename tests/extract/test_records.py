"""Unit tests for extraction records and the debug channel."""

from repro.extract.records import (
    ErrorKind,
    ExtractionDebug,
    ExtractionRecord,
    records_from_wire,
    records_to_wire,
)
from repro.kb.triples import Triple
from repro.kb.values import DateValue, EntityRef, NumberValue, StringValue


def make_record(**kwargs):
    defaults = dict(
        triple=Triple("/m/1", "p/t/a", StringValue("x")),
        extractor="TXT1",
        url="http://s.org/p1",
        site="s.org",
        content_type="TXT",
        pattern="TXT1:t.p",
        confidence=0.7,
        debug=ExtractionDebug(asserted_index=0),
    )
    defaults.update(kwargs)
    return ExtractionRecord(**defaults)


class TestErrorFlags:
    def test_extraction_error_flag(self):
        record = make_record(
            debug=ExtractionDebug(
                asserted_index=0, error_kind=ErrorKind.ENTITY_LINKAGE
            )
        )
        assert record.is_extraction_error

    def test_source_error_flag(self):
        record = make_record(
            debug=ExtractionDebug(asserted_index=0, source_error=True)
        )
        assert not record.is_extraction_error

    def test_clean_record(self):
        record = make_record()
        assert not record.is_extraction_error

    def test_flags_false_without_debug(self):
        record = make_record(debug=None)
        assert not record.is_extraction_error


class TestWireFormat:
    """The compact tuple codec used to ship shard outputs between
    processes must round-trip records exactly."""

    def test_round_trip_all_value_kinds(self):
        records = [
            make_record(),
            make_record(triple=Triple("/m/2", "p/t/b", EntityRef("/m/9"))),
            make_record(triple=Triple("/m/3", "p/t/c", NumberValue(1986.5))),
            make_record(triple=Triple("/m/4", "p/t/d", DateValue("1962-07-03"))),
            make_record(pattern=None, confidence=None),
            make_record(debug=None),
            make_record(
                debug=ExtractionDebug(
                    asserted_index=None,
                    error_kind=ErrorKind.TRIPLE_IDENTIFICATION,
                    source_error=False,
                    span_corrupted=True,
                    slot_mismatch=True,
                )
            ),
        ]
        assert records_from_wire(records_to_wire(records)) == records

    def test_wire_is_flat_tuples(self):
        wire = records_to_wire([make_record()])
        assert isinstance(wire[0], tuple)
        assert all(
            item is None or isinstance(item, (str, int, float, bool, tuple))
            for item in wire[0]
        )


class TestErrorKinds:
    def test_three_paper_categories(self):
        assert {k.value for k in ErrorKind} == {
            "triple_identification",
            "entity_linkage",
            "predicate_linkage",
        }
