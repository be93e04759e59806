"""The merged record columns and their readers, under any cut into tables.

A run hands on its records as one table per page window, and the window
size decides where the cuts fall.  ``RecordTables.add_table`` appends
each to one store, whose ``columns`` must equal the single table of all
the records (string and triple codes in first-arrival order, every
column array for array) and decode to the same records.  Every ``eval.stats`` record
slice reads those columns; each must equal its record-object loop
(``tests/oracle/stats.py``) on one ``tiny`` scenario's records, wherever
the cuts fall.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.eval import stats
from repro.extract.records import RecordTables, records_from_wire, records_to_wire
from tests.oracle import stats as oracle


@pytest.fixture(scope="module")
def records(tiny_scenario):
    return list(tiny_scenario.records)


def cut(records, fractions) -> RecordTables:
    """A store of ``records`` appended as one table per span between the
    cut points (``fractions`` of the way through, empty spans included)."""
    bounds = [0, *sorted(int(f * len(records)) for f in fractions), len(records)]
    store = RecordTables()
    for a, b in zip(bounds, bounds[1:]):
        store.add_table(records_to_wire(records[a:b]))
    return store


cut_points = st.lists(st.floats(0, 1), max_size=12)


class TestMergedColumns:
    @settings(max_examples=40, deadline=None)
    @given(points=cut_points)
    def test_merge_is_the_single_table_of_all_records(self, records, points):
        columns = cut(records, points).columns
        whole = records_to_wire(records)
        assert columns.strings == whole[0]
        assert columns.triples == whole[1]
        for merged, expected in zip(columns[2:], whole[2:], strict=True):
            assert merged.dtype == expected.dtype
            assert np.array_equal(merged, expected)
        assert records_from_wire(columns) == records

    def test_no_tables_merge_to_an_empty_table(self):
        columns = RecordTables().columns
        assert columns.codes.shape == (0, 6)
        assert records_from_wire(columns) == []


class TestStatsReadColumns:
    @settings(max_examples=25, deadline=None)
    @given(points=cut_points)
    def test_record_slices_equal_the_record_loops(self, tiny_scenario, records, points):
        tables = cut(records, points)
        gold = tiny_scenario.gold
        assert list(tables.triple_support.items()) == [
            (triple.canonical(), support)
            for triple, support in oracle.triple_support(records).items()
        ]
        assert stats.coverage_by_confidence_threshold(
            tables
        ) == oracle.coverage_by_confidence_threshold(records)
        assert stats.confidence_coverage_curve(tables) == oracle.confidence_coverage_curve(
            records
        )
        assert stats.confidence_accuracy_curve(
            tables, gold
        ) == oracle.confidence_accuracy_curve(records, gold)

    @pytest.mark.parametrize("extractor", ["TXT1", "DOM2", "TBL1", "ANO", "nobody"])
    def test_one_extractors_curves_are_its_records_curves(
        self, tiny_scenario, records, extractor
    ):
        mine = [record for record in records if record.extractor == extractor]
        tables = cut(records, [1 / 3, 1 / 2])
        gold = tiny_scenario.gold
        assert stats.confidence_accuracy_curve(
            tables, gold, extractor
        ) == oracle.confidence_accuracy_curve(mine, gold)
        if not any(record.confidence is not None for record in mine):
            with pytest.raises(EvaluationError):
                stats.confidence_coverage_curve(tables, extractor)
            return
        assert stats.confidence_coverage_curve(
            tables, extractor
        ) == oracle.confidence_coverage_curve(mine)
