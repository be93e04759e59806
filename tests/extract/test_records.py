"""Unit tests for extraction records and the debug channel."""

import numpy as np

from repro.extract.records import (
    ErrorKind,
    ExtractionDebug,
    ExtractionRecord,
    RecordTables,
    records_from_wire,
    records_to_wire,
)
from repro.kb.triples import Triple
from repro.kb.values import DateValue, EntityRef, NumberValue, StringValue
from repro.mapreduce.codec import scan_payload_types


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


class TestErrorColumns:
    """An extraction error is a row with a debug channel and an error-kind
    code: what ``repro-kf extract``'s ``error records:`` line counts."""

    @staticmethod
    def is_error(record) -> bool:
        cols = RecordTables.of([record]).columns
        return bool(cols.has_debug[0] and cols.error_kind[0] >= 0)

    def test_extraction_error_flag(self):
        record = make_record(
            debug=ExtractionDebug(
                asserted_index=0, error_kind=ErrorKind.ENTITY_LINKAGE
            )
        )
        assert self.is_error(record)

    def test_source_error_flag(self):
        record = make_record(
            debug=ExtractionDebug(asserted_index=0, source_error=True)
        )
        assert not self.is_error(record)

    def test_clean_record(self):
        assert not self.is_error(make_record())

    def test_flags_false_without_debug(self):
        assert not self.is_error(make_record(debug=None))


class TestWireFormat:
    """The columnar codec used to ship shard outputs between processes
    must round-trip records exactly."""

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

    def test_wire_holds_only_primitives_and_numeric_arrays(self):
        """The wire is tables of strings plus numeric columns: no
        ``Triple``, value, record or debug object crosses the boundary."""
        records = [
            make_record(),
            make_record(triple=Triple("/m/2", "p/t/b", EntityRef("/m/9"))),
            make_record(pattern=None, confidence=None, debug=None),
            make_record(
                debug=ExtractionDebug(
                    asserted_index=None, error_kind=ErrorKind.PREDICATE_LINKAGE
                )
            ),
        ]
        wire = records_to_wire(records)
        types = scan_payload_types(wire)
        assert types <= {str, int, float, bool, type(None), list, tuple, np.ndarray}
        arrays = [part for part in wire if isinstance(part, np.ndarray)]
        assert arrays
        assert all(
            array.dtype.kind in "biuf" and array.shape[0] == len(records)
            for array in arrays
        )

    def test_decoded_records_share_strings_and_triples(self):
        """One shard decodes to one object per distinct triple and per
        distinct string, as in-process synthesis builds them."""
        records = [
            make_record(url=f"http://s.org/p{index % 2}", pattern=f"TXT1:{index % 3}")
            for index in range(6)
        ] + [make_record(triple=Triple("/m/2", "p/t/b", EntityRef("/m/9")))]
        decoded = records_from_wire(records_to_wire(records))
        assert decoded == records
        assert len({id(r.triple) for r in decoded}) == 2
        for field in ("extractor", "url", "site", "content_type", "pattern"):
            values = [getattr(r, field) for r in decoded]
            assert len({id(value) for value in values}) == len(set(values)), field


class TestErrorKinds:
    def test_three_paper_categories(self):
        assert {k.value for k in ErrorKind} == {
            "triple_identification",
            "entity_linkage",
            "predicate_linkage",
        }
