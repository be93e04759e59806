"""Unit tests for triples and data items."""

import dataclasses
import os
import pickle
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.artifacts import _dumps, _fast_fields
from repro.kb.triples import DataItem, Triple
from repro.kb.values import DateValue, EntityRef, NumberValue, StringValue


@pytest.fixture
def triple():
    return Triple("/m/07r1h", "people/person/birth_date", DateValue("1962-07-03"))


class TestTriple:
    def test_data_item(self, triple):
        assert triple.data_item == DataItem("/m/07r1h", "people/person/birth_date")

    def test_canonical_roundtrip(self, triple):
        assert Triple.from_canonical(triple.canonical()) == triple

    def test_from_canonical_rejects_malformed(self):
        with pytest.raises(ValueError):
            Triple.from_canonical("only|two")

    def test_hashable(self, triple):
        clone = Triple.from_canonical(triple.canonical())
        assert len({triple, clone}) == 1

    def test_ordering_handles_mixed_value_kinds(self):
        a = Triple("/m/1", "p", EntityRef("/m/2"))
        b = Triple("/m/1", "p", StringValue("raw"))
        assert sorted([b, a]) == sorted([a, b])

    def test_ordering_is_canonical_order(self):
        a = Triple("/m/1", "p", StringValue("a"))
        b = Triple("/m/1", "p", StringValue("b"))
        assert a < b
        assert b > a

    def test_comparison_with_non_triple_raises(self, triple):
        with pytest.raises(TypeError):
            _ = triple < 42


class TestTripleIdentity:
    """The hash is crc32 of the canonical text, kept outside the fields."""

    def test_equal_triples_hash_equal(self, triple):
        built = Triple(triple.subject, triple.predicate, DateValue("1962-07-03"))
        parsed = Triple.from_canonical(triple.canonical())
        assert built == parsed == triple
        assert hash(built) == hash(parsed) == hash(triple)
        assert hash(triple) == zlib.crc32(triple.canonical().encode())

    def test_non_canonical_number_text_keys_the_canonical_text(self):
        built = Triple("/m/1", "p", NumberValue(1986))
        parsed = Triple.from_canonical("/m/1|p|number:1986.0")
        assert parsed == built
        assert hash(parsed) == hash(built)
        assert {built: 1}[parsed] == 1

    def test_hash_is_the_same_in_every_process(self, triple):
        root = Path(__file__).resolve().parents[2]
        script = (
            "from repro.kb.triples import Triple\n"
            "from repro.kb.values import DateValue\n"
            f"print(hash(Triple.from_canonical({triple.canonical()!r})))\n"
            f"print(hash(Triple({triple.subject!r}, {triple.predicate!r}, "
            f"{triple.obj!r})))"
        )
        seen = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env={
                    **os.environ,
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": str(root / "src"),
                },
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            seen.append(proc.stdout.split())
        assert seen[0] == seen[1] == [str(hash(triple))] * 2

    @pytest.mark.parametrize("pickler", ["stock", "artifact"])
    def test_pickle_round_trips_equal_with_the_same_hash(self, triple, pickler):
        hash(triple)  # the key is cached before pickling
        dumps = pickle.dumps if pickler == "stock" else _dumps
        clone = pickle.loads(dumps(triple))
        assert clone == triple
        assert hash(clone) == hash(triple)

    def test_the_key_is_not_a_dataclass_field(self):
        fields = dataclasses.fields(Triple)
        assert [field.name for field in fields] == ["subject", "predicate", "obj"]
        assert all(field.init for field in fields)
        # So the artifact pickler keeps its constructor fast path.
        assert _fast_fields(Triple) == ("subject", "predicate", "obj")

    def test_frozen(self, triple):
        with pytest.raises(AttributeError):
            triple.subject = "/m/2"


class TestDataItem:
    def test_canonical(self):
        assert DataItem("/m/1", "p").canonical() == "/m/1|p"

    def test_ordering(self):
        assert DataItem("/m/1", "a") < DataItem("/m/1", "b") < DataItem("/m/2", "a")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DataItem("/m/1", "p").subject = "/m/2"
