"""Unit tests for the content models."""

import pytest

from repro.world.content import DomRow, Mention, Sentence, WebTable


def mention(surface="X", kind="entity", fact_ref=None):
    return Mention(surface=surface, kind=kind, fact_ref=fact_ref)


class TestStructures:
    def test_mention_frozen(self):
        with pytest.raises(AttributeError):
            mention().surface = "Y"

    def test_sentence_holds_objects(self):
        subject = mention("Tom Cruise")
        obj = mention("1962-07-03", kind="date", fact_ref=0)
        sentence = Sentence(
            template_id="t.x.0",
            subject=subject,
            objects=(obj,),
            text="Tom Cruise was born on 1962-07-03.",
        )
        assert sentence.objects[0].fact_ref == 0
        assert sentence.subject.fact_ref is None

    def test_dom_row_merged_flags(self):
        row = DomRow(
            label="Born",
            cells=(mention(kind="string"), mention(kind="date"), mention()),
            merged=True,
            cell_labels=("name", "date", "place"),
        )
        assert row.merged
        assert len(row.cells) == len(row.cell_labels)

    def test_plain_row_defaults(self):
        row = DomRow(label="Director", cells=(mention(),))
        assert not row.merged
        assert row.cell_labels is None

    def test_table_subject_col(self):
        table = WebTable(
            caption="Films",
            headers=("#", "Name", "Year"),
            rows=((mention("1", "number"), mention("Top Gun"), mention("1986", "number")),),
            subject_col=1,
        )
        assert table.rows[0][table.subject_col].surface == "Top Gun"
