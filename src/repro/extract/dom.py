"""DOM extractors (DOM1-5): infobox row parsing.

A DOM extractor maps a row label ("Born", "Director") to a predicate.
Good extractors resolve labels *per subject type* (they know, post-linkage,
that the subject is a film); cheap ones use a single global label map, so
cross-type label collisions ("Headquarters", "Publisher") become
predicate-linkage errors.  Merged rows (the Wikipedia ``Born`` row packing
name, date and place) are flattened by extractors without merged-row
handling — every cell lands on the label's one predicate, the paper's
flagship triple-identification error.

DOM extractors whose profile includes the TBL content type also process web
tables the way a tree-walker would ("an extractor targeted at DOM can also
extract from TBL since Web tables are in DOM-tree format"): each header
becomes a row label — which is exactly how the small TBL/DOM triple
overlap of Figure 3 arises.
"""

from __future__ import annotations

from repro.extract.base import Extractor, ExtractorProfile
from repro.extract.linkage import EntityLinker
from repro.extract.synthesis import emit_plan
from repro.kb.schema import Schema
from repro.rng import split_seed
from repro.world.content import DomTree, WebTable
from repro.world.labels import dom_label, tbl_header
from repro.world.webgen import WebPage

__all__ = ["DomExtractor"]

#: Merged-row cell routing when the generator recorded no explicit
#: sub-labels: dates are birth dates, entities are birthplaces.
_MERGED_CELL_SUB = {"date": "date", "entity": "place"}


class DomExtractor(Extractor):
    """Row-label driven extraction from DOM trees (and optionally tables)."""

    record_content_type = "DOM"

    def __init__(
        self,
        profile: ExtractorProfile,
        schema: Schema,
        linker: EntityLinker,
        seed: int,
        patterned: bool = False,
    ) -> None:
        super().__init__(profile, schema, linker, seed)
        self.patterned = patterned
        # Per-type label maps: (type_id, label) -> pid.
        self._typed_map: dict[tuple[str, str], str] = {}
        # Global label map: label -> pid; collisions resolved by pid order,
        # which is precisely where a global map goes wrong.
        self._global_map: dict[str, str] = {}
        # Memo for _resolve_label(): pure in (label, subject_type), and
        # the same row labels recur on every page of a type.
        self._label_cache: dict[tuple[str, str | None], str | None] = {}
        # Memos, all pure in their keys: per-row emit plans, the
        # merged-row Born / Birthplace plan pairs, and per-header plans
        # for the table-as-DOM walk.
        self._row_plans: dict[tuple[str, str], tuple | None] = {}
        self._merged_preds: dict[tuple[str, str], tuple] = {}
        self._tbl_plans: dict[tuple[str, str], tuple | None] = {}
        for pid in sorted(schema.predicates):
            predicate = schema.predicates[pid]
            label = dom_label(pid)
            self._typed_map.setdefault((predicate.type_id, label), pid)
            self._global_map.setdefault(label, pid)
            header = tbl_header(pid)
            self._typed_map.setdefault((predicate.type_id, header), pid)
            self._global_map.setdefault(header, pid)

    @property
    def n_patterns(self) -> int | None:
        """Patterned DOM extractors report a library size (Table 2)."""
        if not self.patterned:
            return None
        return len(self._typed_map)

    # ------------------------------------------------------------------
    def _resolve_label(self, label: str, subject_type: str | None) -> str | None:
        """Label -> predicate id, honouring the global-map knob and the
        wrong-predicate corruption rate.  Memoized: the resolution is a
        pure function of ``(label, subject_type)``, including the
        corruption draws (``split_seed``-derived, no shared RNG)."""
        memo_key = (label, subject_type)
        if memo_key in self._label_cache:
            return self._label_cache[memo_key]
        pid = self._resolve_label_uncached(label, subject_type)
        self._label_cache[memo_key] = pid
        return pid

    def _resolve_label_uncached(
        self, label: str, subject_type: str | None
    ) -> str | None:
        if self.profile.global_label_map or subject_type is None:
            pid = self._global_map.get(label)
        else:
            pid = self._typed_map.get((subject_type, label))
            if pid is None:
                pid = self._global_map.get(label)
        if pid is None:
            return None
        if self.profile.wrong_predicate_rate > 0:
            draw = (
                split_seed(self.seed, "domwrong", self.name, subject_type or "-", label)
                % 1_000_000
            ) / 1_000_000.0
            if draw < self.profile.wrong_predicate_rate:
                predicate = self.schema.predicates[pid]
                if predicate.confusable_with is not None:
                    return predicate.confusable_with
                siblings = [
                    p.pid
                    for p in self.schema.predicates_of_type(predicate.type_id)
                    if p.pid != pid
                ]
                if siblings:
                    index = split_seed(self.seed, "domsib", self.name, label) % len(
                        siblings
                    )
                    return siblings[index]
        return pid

    def _pattern_id(self, subject_type: str | None, label: str) -> str | None:
        if not self.patterned:
            return None
        return f"{self.name}:{subject_type or 'any'}:{label}"

    # ------------------------------------------------------------------
    def _row_plan(self, subject_type: str, label: str) -> tuple | None:
        """The :func:`~repro.extract.synthesis.emit_plan` for a plain row
        (or None for unmapped labels) — label resolution, pattern id and
        reliability, pure in the key."""
        plan = self._row_plans.get((subject_type, label), False)
        if plan is False:
            pid = self._resolve_label(label, subject_type)
            predicate = None if pid is None else self.schema.predicates.get(pid)
            plan = self._row_plans[(subject_type, label)] = (
                None
                if predicate is None
                else emit_plan(
                    self,
                    predicate,
                    self._pattern_id(subject_type, label),
                    self.reliability_for(f"{subject_type}:{label}"),
                )
            )
        return plan

    def _merged_row_plan(self, subject_type: str, label: str) -> tuple:
        """(Born emit_plan | None, Birthplace emit_plan | None) for a
        merged row the extractor understands — sub-label routing targets
        with the row's shared reliability/pattern baked in."""
        plans = self._merged_preds.get((subject_type, label))
        if plans is None:
            born = self._typed_map.get((subject_type, "Born"))
            place = self._typed_map.get((subject_type, "Birthplace"))
            pattern = self._pattern_id(subject_type, label)
            reliability = self.reliability_for(f"{subject_type}:{label}")
            plans = self._merged_preds[(subject_type, label)] = (
                None
                if born is None
                else emit_plan(self, self.schema.predicates[born], pattern, reliability),
                None
                if place is None
                else emit_plan(self, self.schema.predicates[place], pattern, reliability),
            )
        return plans

    def _synthesize_tree(self, page, tree, emit) -> None:
        resolve = self.linker.resolve
        subject_id = resolve(tree.subject.surface)
        if subject_id is None:
            return
        subject_type = self.linker.registry.get(subject_id).primary_type
        handles_merged = self.profile.handles_merged
        row_plans = self._row_plans
        build_plan = self._row_plan
        merged_sub = _MERGED_CELL_SUB
        rows = tree.rows
        pool = None
        for row in rows:
            label = row.label
            if row.merged and handles_merged:
                # Understands the nested structure: route each cell to the
                # right predicate by sub-label (when rendered) or value kind.
                born_plan, place_plan = self._merged_row_plan(subject_type, label)
                cell_labels = row.cell_labels
                for index, cell in enumerate(row.cells):
                    if cell_labels is not None:
                        sub = cell_labels[index]
                    else:
                        sub = merged_sub.get(cell.kind)
                    if sub == "date":
                        plan = born_plan
                    elif sub == "place":
                        plan = place_plan
                    else:
                        continue  # the name cell — correctly skipped
                    if plan is None:
                        continue
                    emit(page, subject_id, plan, cell)
                continue
            plan = row_plans.get((subject_type, label), False)
            if plan is False:
                plan = build_plan(subject_type, label)
            if plan is None:
                continue
            structure_penalty = 0.55 if row.merged else 1.0
            if pool is None:
                pool = tuple(cell for pooled in rows for cell in pooled.cells)
            for cell in row.cells:
                emit(
                    page, subject_id, plan, cell,
                    structure_penalty, row.merged, pool,
                )

    def _synthesize_table_as_dom(self, page, table, emit) -> None:
        """Walk a table the way a generic tree-walker would: assume the
        first column is the subject and headers are row labels."""
        resolve = self.linker.resolve
        registry_get = self.linker.registry.get
        tbl_plans = self._tbl_plans
        headers = table.headers
        n_headers = len(headers)
        for row in table.rows:
            if not row:
                continue
            subject_mention = row[0]
            if subject_mention.kind != "entity":
                continue
            subject_id = resolve(subject_mention.surface)
            if subject_id is None:
                continue
            subject_type = registry_get(subject_id).primary_type
            row_pool = tuple(row[1:])
            for column in range(1, min(len(row), n_headers)):
                header = headers[column]
                plan = tbl_plans.get((subject_type, header), False)
                if plan is False:
                    pid = self._resolve_label(header, subject_type)
                    predicate = (
                        None if pid is None else self.schema.predicates.get(pid)
                    )
                    plan = tbl_plans[(subject_type, header)] = (
                        None
                        if predicate is None
                        else emit_plan(
                            self,
                            predicate,
                            self._pattern_id(subject_type, header),
                            self.reliability_for(f"tbl:{header}"),
                        )
                    )
                if plan is None:
                    continue
                emit(
                    page, subject_id, plan, row[column],
                    1.0, False, row_pool,
                )

    def _synthesize_page(self, page: WebPage, emit) -> None:
        handles_tbl = "TBL" in self.profile.content_types
        for element in page.elements:
            if isinstance(element, DomTree):
                self._synthesize_tree(page, element, emit)
            elif handles_tbl and isinstance(element, WebTable):
                self._synthesize_table_as_dom(page, element, emit)
