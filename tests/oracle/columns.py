"""The dict claim views, the reference column layout, and their comparison.

What ``ClaimMatrix`` and ``ColumnarClaims`` used to carry for per-item
Python logic, moved here verbatim when their last ``src/`` reader (the §5
extension fusers) went column-native:

- :class:`DictClaims` — the ``items`` / ``prov_triples`` dict views of one
  granularity (was ``ClaimMatrix._dict_views`` and its two properties),
  which the dict-engine oracle (:mod:`tests.oracle.fusion`) and the
  extension oracles (:mod:`tests.oracle.extensions`) iterate;
- :func:`columns_from_items` — the canonical column layout spelled out
  object by object from those views (was ``ColumnarClaims.from_items``):
  the executable specification ``FusionInput.claims`` (the only
  production layout) must reproduce exactly;
- :func:`provenance_key` — one record's source at a granularity, spelled
  out per granularity (was ``repro.fusion.provenance.provenance_key``):
  the reference for ``KEY_FIELDS``, which the fusion input applies to
  whole code columns.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FusionError
from repro.extract.records import ExtractionRecord
from repro.fusion.matrix import NUMERIC_COLUMNS
from repro.fusion.observations import ColumnarClaims, FusionInput, ProvKey
from repro.fusion.provenance import Granularity
from repro.kb.triples import DataItem, Triple

__all__ = [
    "DictClaims",
    "assert_columns_equal",
    "columns_from_items",
    "dict_claims",
    "provenance_key",
    "record_claim_ids",
    "reference_columns",
]


def provenance_key(record: ExtractionRecord, granularity: Granularity) -> ProvKey:
    """The data-fusion source this record belongs to under ``granularity``."""
    pattern = record.pattern if record.pattern is not None else f"{record.extractor}:-"
    if granularity is Granularity.EXTRACTOR_URL:
        return (record.extractor, record.url)
    if granularity is Granularity.EXTRACTOR_SITE:
        return (record.extractor, record.site)
    if granularity is Granularity.EXTRACTOR_SITE_PREDICATE:
        return (record.extractor, record.site, record.triple.predicate)
    if granularity is Granularity.EXTRACTOR_SITE_PREDICATE_PATTERN:
        return (record.extractor, record.site, record.triple.predicate, pattern)
    if granularity is Granularity.EXTRACTOR_PATTERN_ONLY:
        return (pattern,)
    if granularity is Granularity.URL_ONLY:
        return (record.url,)
    raise FusionError(f"unknown granularity {granularity!r}")


class DictClaims:
    """The deduplicated claim structure of one granularity, as dicts.

    Built from extraction ``records`` or from prebuilt ``columns``
    (exactly one):

    ``items``: data item -> {triple -> set of supporting provenances}.
    ``prov_triples``: provenance -> unique triples it supports.

    Views derived from records keep record *arrival* order, while views
    derived from bare columns come out in the columns' canonical order
    (equal as dicts; sets and dict equality ignore order).
    """

    def __init__(self, granularity: Granularity, records=None, columns=None) -> None:
        if (records is None) == (columns is None):
            raise ValueError("DictClaims takes exactly one of records= / columns=")
        self.granularity = granularity
        self._records = records
        self._columnar = columns
        self._views: tuple[dict, dict] | None = None  # (items, prov_triples)

    def _dict_views(self):
        if self._views is None:
            items: dict[DataItem, dict[Triple, set[ProvKey]]] = {}
            prov_triples: dict[ProvKey, set[Triple]] = {}
            if self._records is not None:
                for record in self._records:
                    key = provenance_key(record, self.granularity)
                    triple_map = items.setdefault(record.triple.data_item, {})
                    triple_map.setdefault(record.triple, set()).add(key)
                    prov_triples.setdefault(key, set()).add(record.triple)
            else:
                cols = self._columnar
                triples, provenances = cols.triples, cols.provenances
                item_ptr, row_ptr = cols.item_ptr.tolist(), cols.row_ptr.tolist()
                prov_ptr = cols.prov_ptr.tolist()
                for j, item in enumerate(cols.items):
                    items[item] = {
                        triples[r]: {
                            provenances[p]
                            for p in cols.claim_prov[row_ptr[r] : row_ptr[r + 1]].tolist()
                        }
                        for r in range(item_ptr[j], item_ptr[j + 1])
                    }
                for p, prov in enumerate(provenances):
                    rows = cols.prov_rows[prov_ptr[p] : prov_ptr[p + 1]].tolist()
                    prov_triples[prov] = {triples[r] for r in rows}
            self._views = (items, prov_triples)
        return self._views

    @property
    def items(self) -> dict[DataItem, dict[Triple, set[ProvKey]]]:
        return self._dict_views()[0]

    @property
    def prov_triples(self) -> dict[ProvKey, set[Triple]]:
        return self._dict_views()[1]

    def n_claims(self) -> int:
        return sum(len(triples) for triples in self.prov_triples.values())


def dict_claims(fusion_input: FusionInput, granularity: Granularity) -> DictClaims:
    """The dict views of ``fusion_input`` at ``granularity``: from its
    records when it holds them, else from its one column set."""
    if fusion_input.records is not None:
        return DictClaims(granularity, records=fusion_input.records)
    return DictClaims(granularity, columns=fusion_input.claims(granularity))


def columns_from_items(
    items_map: dict[DataItem, dict[Triple, set[ProvKey]]],
    granularity: Granularity = Granularity.EXTRACTOR_URL,
) -> ColumnarClaims:
    """The canonical layout, spelled out from the dict views."""
    items = sorted(items_map)
    provenances = sorted(
        {prov for triple_map in items_map.values() for provs in triple_map.values() for prov in provs}
    )
    prov_index = {prov: p for p, prov in enumerate(provenances)}

    triples: list[Triple] = []
    row_item: list[int] = []
    item_ptr = [0]
    row_ptr = [0]
    claim_prov: list[int] = []
    for j, item in enumerate(items):
        triple_map = items_map[item]
        for triple in sorted(triple_map):
            triples.append(triple)
            row_item.append(j)
            for prov in sorted(triple_map[triple]):
                claim_prov.append(prov_index[prov])
            row_ptr.append(len(claim_prov))
        item_ptr.append(len(triples))

    claim_prov_arr = np.asarray(claim_prov, dtype=np.int64)
    row_ptr_arr = np.asarray(row_ptr, dtype=np.int64)
    # Transpose: claims sorted by (prov, row) give the per-prov row CSR.
    claim_row = np.repeat(
        np.arange(len(triples), dtype=np.int64), np.diff(row_ptr_arr)
    )
    order = np.argsort(claim_prov_arr, kind="stable")
    prov_rows = claim_row[order]
    prov_counts = np.bincount(claim_prov_arr, minlength=len(provenances))
    prov_ptr = np.zeros(len(provenances) + 1, dtype=np.int64)
    np.cumsum(prov_counts, out=prov_ptr[1:])

    return ColumnarClaims(
        granularity=granularity,
        items=items,
        texts=[triple.canonical() for triple in triples],
        triples=triples,
        provenances=provenances,
        row_item=np.asarray(row_item, dtype=np.int64),
        item_ptr=np.asarray(item_ptr, dtype=np.int64),
        claim_prov=claim_prov_arr,
        row_ptr=row_ptr_arr,
        prov_rows=prov_rows,
        prov_ptr=prov_ptr,
    )


def reference_columns(records, granularity) -> tuple[DictClaims, ColumnarClaims]:
    """The records' dict views and the layout spelled out from them — the
    comparand of ``FusionInput.claims``."""
    views = DictClaims(granularity, records=records)
    return views, columns_from_items(views.items, granularity)


def record_claim_ids(records, cols: ColumnarClaims) -> list[int]:
    """Each record's claim id in ``cols``, looked up by its triple's row
    and its :func:`provenance_key` — the comparand of
    ``FusionInput.record_claims``."""
    row_of = {triple: r for r, triple in enumerate(cols.triples)}
    prov_of = {prov: p for p, prov in enumerate(cols.provenances)}
    row_ptr, claim_prov = cols.row_ptr.tolist(), cols.claim_prov.tolist()
    claim_of = {
        (r, claim_prov[c]): c
        for r in range(cols.n_rows)
        for c in range(row_ptr[r], row_ptr[r + 1])
    }
    return [
        claim_of[row_of[record.triple], prov_of[provenance_key(record, cols.granularity)]]
        for record in records
    ]


def assert_columns_equal(actual: ColumnarClaims, expected: ColumnarClaims) -> None:
    assert actual.granularity == expected.granularity
    assert list(actual.items) == list(expected.items)
    assert list(actual.texts) == list(expected.texts)
    assert list(actual.triples) == list(expected.triples)
    assert list(actual.provenances) == list(expected.provenances)
    for name in NUMERIC_COLUMNS:
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert np.array_equal(actual.canonical_rank(), expected.canonical_rank())
