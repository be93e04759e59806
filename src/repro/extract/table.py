"""Web-table extractors (TBL1-2): schema mapping over relational tables.

The two extractors embody the two classic schema-mapping strategies:

- **TBL1** (header-based, naive): assumes the subject is column 0 and
  resolves each header to the alphabetically-first candidate predicate —
  wrong whenever a header like "Year" is ambiguous across types, and blind
  on tables whose first column is a row number;
- **TBL2** (value-based, type-aware): detects the subject column by how
  many of its cells *link* to entities, infers the table's subject type
  from the linked rows, and resolves headers within that type — the
  state-of-the-art mapping of the paper's [1] at toy scale.
"""

from __future__ import annotations

from collections import Counter

from repro.extract.base import Extractor
from repro.extract.records import ExtractionRecord
from repro.extract.synthesis import emit_plan
from repro.world.content import WebTable
from repro.world.labels import header_candidates
from repro.world.webgen import WebPage

__all__ = ["TableExtractor"]


class TableExtractor(Extractor):
    """Relational extraction from web tables."""

    record_content_type = "TBL"

    def __init__(self, profile, schema, linker, seed) -> None:
        super().__init__(profile, schema, linker, seed)
        # Memo: (header, subject_type) -> mapped pid, the pure
        # ``_map_header`` resolution.
        self._header_plans: dict[tuple[str, str | None], str | None] = {}

    # ------------------------------------------------------------------
    def _subject_column(self, table: WebTable) -> int:
        if not self.profile.detect_subject_col:
            return 0
        best_col, best_hits = 0, -1
        n_cols = len(table.headers)
        for col in range(n_cols):
            hits = 0
            for row in table.rows:
                if col < len(row) and row[col].kind == "entity":
                    if self.linker.resolve(row[col].surface) is not None:
                        hits += 1
            if hits > best_hits:
                best_col, best_hits = col, hits
        return best_col

    def _majority_type(self, table: WebTable, subject_col: int) -> str | None:
        counts: Counter[str] = Counter()
        for row in table.rows:
            if subject_col >= len(row) or row[subject_col].kind != "entity":
                continue
            linked = self.linker.resolve(row[subject_col].surface)
            if linked is not None:
                counts[self.linker.registry.get(linked).primary_type] += 1
        if not counts:
            return None
        return counts.most_common(1)[0][0]

    def _map_header(self, header: str, subject_type: str | None) -> str | None:
        candidates = header_candidates(self.schema, header)
        if not candidates:
            return None
        if self.profile.type_aware_headers and subject_type is not None:
            typed = [
                pid
                for pid in candidates
                if self.schema.predicates[pid].type_id == subject_type
            ]
            if typed:
                return typed[0]
            return None  # a careful mapper abstains rather than guessing
        return candidates[0]  # naive: global first candidate

    # ------------------------------------------------------------------
    def _synthesize_table(self, page, table, emit, records) -> None:
        subject_col = self._subject_column(table)
        subject_type = self._majority_type(table, subject_col)
        header_plans = self._header_plans
        # Column plan: predicate and reliability draw, resolved once per
        # table instead of once per row.
        plan: list[tuple] = []
        for col, header in enumerate(table.headers):
            if col == subject_col:
                continue
            key = (header, subject_type)
            if key in header_plans:
                pid = header_plans[key]
            else:
                pid = header_plans[key] = self._map_header(header, subject_type)
            if pid is None:
                continue
            predicate = self.schema.predicates.get(pid)
            if predicate is None:
                continue
            plan.append(
                (
                    col,
                    emit_plan(
                        self, predicate, None, self.reliability_for(f"hdr:{header}")
                    ),
                )
            )
        hint = subject_type if self.profile.use_type_hints else None
        resolve = self.linker.resolve
        append = records.append
        for row in table.rows:
            if subject_col >= len(row) or row[subject_col].kind != "entity":
                continue
            subject_id = resolve(row[subject_col].surface, hint)
            if subject_id is None:
                continue
            row_pool = tuple(
                cell for col, cell in enumerate(row) if col != subject_col
            )
            n_cells = len(row)
            for col, eplan in plan:
                if col >= n_cells:
                    continue
                record = emit(
                    page, subject_id, eplan, row[col], 1.0, False, row_pool
                )
                if record is not None:
                    append(record)

    def _synthesize_page(self, page: WebPage, emit) -> list[ExtractionRecord]:
        records: list[ExtractionRecord] = []
        for element in page.elements:
            if isinstance(element, WebTable):
                self._synthesize_table(page, element, emit, records)
        return records
