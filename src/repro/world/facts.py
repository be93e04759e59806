"""The latent world: truth sets, wrong-value pools, Freebase snapshot.

:class:`World` is the ground truth fusion tries to recover.  It owns the
schema, the entity registry, the location containment hierarchy, and the
truth set of every data item.  Two derived artifacts matter downstream:

- **wrong-value pools** — per data item, a small Zipf-weighted pool of
  plausible wrong values.  Web sources draw erroneous claims from this
  shared pool, so the *same* wrong value recurs on independent pages
  (exactly the "popular false values" POPACCU models);
- **the Freebase snapshot** — a deliberately imperfect subset of the truth
  (missing values, generalised locations, a few outright errors) used to
  build the LCWA gold standard, reproducing the gold standard's documented
  failure modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from repro.kb.entities import Entity, EntityRegistry
from repro.kb.hierarchy import ValueHierarchy
from repro.kb.schema import Schema, ValueKind
from repro.kb.store import KnowledgeBase
from repro.kb.triples import DataItem, Triple
from repro.kb.values import (
    DateValue,
    EntityRef,
    NumberValue,
    StringValue,
    Value,
)
from repro.rng import split_seed, zipf_weights
from repro.world.catalog import TypeSpec
from repro.world.config import WorldConfig

__all__ = ["World", "SourceAssertion", "build_freebase_snapshot"]


@dataclass(frozen=True, slots=True)
class SourceAssertion:
    """What one web page claims about one data item.

    ``true_in_world`` is True when the claimed triple is exactly true or a
    hierarchical generalisation of a truth; ``exact`` distinguishes the two.
    ``copied_from`` records the URL this assertion was copied from, if any.
    These fields are ground truth for *analysis*; extraction and fusion
    never see them.
    """

    triple: Triple
    true_in_world: bool
    exact: bool
    copied_from: str | None = None

    @property
    def source_error(self) -> bool:
        return not self.true_in_world


class _WorldTables:
    """Lookup tables derived from a finished :class:`World`.

    They exist so that page generation costs O(page), not O(world): what
    used to be a walk over every truth per wrong string draw, and a
    rebuilt entity pool per page, is one walk here plus two memos.

    - ``strings`` / ``positions`` — every ``StringValue`` truth in
      ``truths`` iteration order, and ``text -> ascending positions`` of
      the values carrying that text (the peers a wrong string draw must
      skip);
    - ``topic_pools`` — per distinct ``SiteProfile.topic_types``, the
      entity pool and its normalised popularity vector, filled on demand
      by :meth:`World.topic_pool`;
    - ``entity_items`` — per entity id, the data items that have truths,
      filled on demand by :meth:`World.items_of`.
    """

    __slots__ = ("strings", "positions", "topic_pools", "entity_items")

    def __init__(self, truths: dict[DataItem, tuple[Value, ...]]) -> None:
        self.strings: list[StringValue] = [
            value
            for values in truths.values()
            for value in values
            if isinstance(value, StringValue)
        ]
        self.positions: dict[str, list[int]] = {}
        for position, value in enumerate(self.strings):
            self.positions.setdefault(value.text, []).append(position)
        self.topic_pools: dict[
            tuple[str, ...], tuple[tuple[Entity, ...], np.ndarray]
        ] = {}
        self.entity_items: dict[str, tuple[DataItem, ...]] = {}


@dataclass
class World:
    """Ground-truth world produced by :func:`repro.world.worldgen.generate_world`.

    A world is finished when ``generate_world`` returns it: nothing
    mutates ``truths``, ``entities`` or ``popularity`` afterwards, and
    the lookup tables behind :meth:`topic_pool`, :meth:`items_of` and the
    wrong string draw (:class:`_WorldTables`) are built from those three
    as they are at first use.  The tables are derived state only: not a
    dataclass field, so they take no part in ``==`` / ``repr``, and never
    pickled (the artifact pickler writes ``cls(*fields)``; stock pickling
    goes through :meth:`__getstate__`).
    """

    config: WorldConfig
    master_seed: int
    schema: Schema
    specs: tuple[TypeSpec, ...]
    entities: EntityRegistry
    hierarchy: ValueHierarchy
    truths: dict[DataItem, tuple[Value, ...]]
    popularity: dict[str, float]
    _wrong_pools: dict[DataItem, tuple[tuple[Value, ...], np.ndarray]] = field(
        default_factory=dict, repr=False
    )

    @cached_property
    def _tables(self) -> _WorldTables:
        return _WorldTables(self.truths)

    def __getstate__(self) -> dict:
        # Fields only: the tables stay behind and are rebuilt on demand.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # ------------------------------------------------------------------
    # Truth queries
    # ------------------------------------------------------------------
    def truth_values(self, item: DataItem) -> tuple[Value, ...]:
        return self.truths.get(item, ())

    def truth_count(self, item: DataItem) -> int:
        return len(self.truths.get(item, ()))

    def is_true_exact(self, triple: Triple) -> bool:
        return triple.obj in self.truths.get(triple.data_item, ())

    def is_generalization(self, triple: Triple) -> bool:
        """True if ``triple`` asserts a strict ancestor of an exact truth.

        Only meaningful for hierarchical entity-valued predicates:
        (Steve Jobs, birth place, USA) generalises the truth "San
        Francisco" and is still a true statement about the world.
        """
        predicate = self.schema.predicates.get(triple.predicate)
        if predicate is None or not predicate.hierarchical:
            return False
        if not isinstance(triple.obj, EntityRef):
            return False
        for truth in self.truths.get(triple.data_item, ()):
            if isinstance(truth, EntityRef) and self.hierarchy.is_ancestor(
                triple.obj.entity_id, truth.entity_id
            ):
                return True
        return False

    def is_true(self, triple: Triple) -> bool:
        """Exactly true, or a true generalisation."""
        return self.is_true_exact(triple) or self.is_generalization(triple)

    def data_items(self) -> list[DataItem]:
        return list(self.truths)

    def items_of(self, entity: Entity) -> tuple[DataItem, ...]:
        """``entity``'s data items that have truths, in schema predicate order."""
        memo = self._tables.entity_items
        items = memo.get(entity.entity_id)
        if items is None:
            candidates = (
                DataItem(entity.entity_id, predicate.pid)
                for predicate in self.schema.predicates_of_type(entity.primary_type)
            )
            items = tuple(item for item in candidates if self.truths.get(item))
            memo[entity.entity_id] = items
        return items

    def topic_pool(
        self, topic_types: tuple[str, ...]
    ) -> tuple[tuple[Entity, ...], np.ndarray]:
        """The entities of ``topic_types`` and their normalised popularity.

        Type by type in the given order, registry order within a type —
        the pool a page of a site with these topics picks its entities
        from.
        """
        memo = self._tables.topic_pools
        cached = memo.get(topic_types)
        if cached is None:
            pool = tuple(
                entity
                for type_id in topic_types
                for entity in self.entities.of_type(type_id)
            )
            weights = np.array(
                [self.popularity.get(entity.entity_id, 1e-9) for entity in pool]
            )
            cached = memo[topic_types] = (pool, weights / weights.sum())
        return cached

    def true_triples(self):
        """Iterate every exactly-true triple in the world."""
        for item, values in self.truths.items():
            for value in values:
                yield Triple(item.subject, item.predicate, value)

    # ------------------------------------------------------------------
    # Wrong-value pools
    # ------------------------------------------------------------------
    def wrong_pool(self, item: DataItem) -> tuple[tuple[Value, ...], np.ndarray]:
        """The shared pool of plausible wrong values for ``item``.

        Returns ``(values, weights)`` where weights are Zipf-normalised;
        deterministic per item (seeded by the item's canonical form), and
        cached.  Sources that err on this item draw from this pool, which is
        what makes some wrong values *popular*.
        """
        cached = self._wrong_pools.get(item)
        if cached is not None:
            return cached
        rng = np.random.default_rng(
            split_seed(self.master_seed, "wrongpool", item.canonical())
        )
        predicate = self.schema.predicate(item.predicate)
        truths = set(self.truths.get(item, ()))
        pool: list[Value] = []
        seen: set[Value] = set(truths)
        attempts = 0
        while len(pool) < self.config.wrong_pool_size and attempts < 200:
            attempts += 1
            candidate = self._plausible_wrong_value(predicate, item, rng)
            if candidate is None or candidate in seen:
                continue
            seen.add(candidate)
            pool.append(candidate)
        values = tuple(pool)
        weights = zipf_weights(len(values)) if values else np.array([])
        self._wrong_pools[item] = (values, weights)
        return values, weights

    def _plausible_wrong_value(
        self, predicate, item: DataItem, rng: np.random.Generator
    ) -> Value | None:
        """One candidate wrong value for ``item``, of the predicate's kind.

        ENTITY: any entity of the object type; NUMBER / DATE: a typical
        corruption of the item's first truth; STRING: another text taken
        from the string truths of the whole world (see below).  May
        return a truth or a repeat -- :meth:`wrong_pool` filters those.
        """
        truths = self.truths.get(item, ())
        if predicate.value_kind is ValueKind.ENTITY:
            candidates = self.entities.of_type(predicate.object_type_id)
            if not candidates:
                return None
            pick = candidates[int(rng.integers(len(candidates)))]
            return EntityRef(pick.entity_id)
        if predicate.value_kind is ValueKind.NUMBER:
            base = None
            for truth in truths:
                if isinstance(truth, NumberValue):
                    base = truth.value
                    break
            if base is None:
                base = float(rng.integers(1, 1000))
            style = rng.random()
            if style < 0.4:
                # Off-by-small: the paper's 8849 vs 8850.
                return NumberValue(base + float(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1))
            if style < 0.7:
                return NumberValue(max(0.0, base * float(rng.choice([0.1, 10.0, 2.0]))))
            return NumberValue(float(np.round(base * (0.5 + rng.random()))))
        if predicate.value_kind is ValueKind.DATE:
            base_iso = None
            for truth in truths:
                if isinstance(truth, DateValue):
                    base_iso = truth.iso
                    break
            if base_iso is None:
                year, month, day = 1950, 1, 1
            else:
                year, month, day = (int(x) for x in base_iso.split("-"))
            style = rng.random()
            if style < 0.4:
                year += int(rng.integers(1, 5)) * (1 if rng.random() < 0.5 else -1)
            elif style < 0.7 and month <= 12 and day <= 12:
                month, day = day, month  # the classic month/day swap
                if month == day:
                    year += 1
            else:
                day = int(rng.integers(1, 29))
                month = int(rng.integers(1, 13))
            year = min(max(year, 1850), 2013)
            return DateValue(f"{year:04d}-{month:02d}-{day:02d}")
        # STRING: any other word from the same literal vocabulary would be
        # ideal; lacking the vocab here, reuse a string truth with another
        # text from anywhere in the world -- any item, any predicate, one
        # uniform draw over all of them (the generated corpora are frozen
        # on exactly this) -- or perturb by suffix when there is none.
        for truth in truths:
            if isinstance(truth, StringValue):
                tables = self._tables
                excluded = tables.positions[truth.text]
                n_peers = len(tables.strings) - len(excluded)
                if not n_peers:
                    return StringValue(truth.text + "s")
                # The k-th string truth once the ``excluded`` positions
                # are skipped, without listing the peers.
                k = int(rng.integers(n_peers))
                for position in excluded:
                    if position > k:
                        break
                    k += 1
                return tables.strings[k]
        return StringValue(f"unknown-{int(rng.integers(1_000_000))}")

    def draw_wrong_value(
        self, item: DataItem, rng: np.random.Generator, popular: bool
    ) -> Value | None:
        """Draw a wrong value for ``item``.

        ``popular=True`` draws from the shared Zipf pool (recurring wrong
        values); otherwise draws uniformly from the pool's tail, standing in
        for one-off source mistakes.
        """
        values, weights = self.wrong_pool(item)
        if not values:
            return None
        if popular:
            index = int(rng.choice(len(values), p=weights))
        else:
            index = int(rng.integers(len(values)))
        return values[index]


def build_freebase_snapshot(
    world: World, seed_name: str = "freebase"
) -> KnowledgeBase:
    """Build the imperfect Freebase-like reference KB from ``world``.

    Controlled by the world's :class:`~repro.world.config.WorldConfig`:
    item coverage, per-value recall for non-functional predicates,
    generalisation of hierarchical values, and a small outright error rate.
    Deterministic given the world's master seed.
    """
    config = world.config
    rng = np.random.default_rng(split_seed(world.master_seed, seed_name))
    snapshot = KnowledgeBase(name="freebase")
    for item in sorted(world.truths):
        values = world.truths[item]
        if not values or rng.random() >= config.freebase_item_coverage:
            continue
        predicate = world.schema.predicate(item.predicate)
        if rng.random() < config.freebase_error_rate:
            wrong = world.draw_wrong_value(item, rng, popular=False)
            if wrong is not None:
                snapshot.add(Triple(item.subject, item.predicate, wrong))
                continue
        stored: list[Value] = []
        if predicate.functional:
            stored.append(values[0])
        else:
            for value in values:
                if rng.random() < config.freebase_value_recall:
                    stored.append(value)
            if not stored:
                stored.append(values[0])
        generalize = (
            predicate.hierarchical
            and rng.random() < config.freebase_generalization_rate
        )
        for value in stored:
            if (
                generalize
                and isinstance(value, EntityRef)
                and world.hierarchy.ancestors(value.entity_id)
            ):
                ancestors = world.hierarchy.ancestors(value.entity_id)
                value = EntityRef(ancestors[int(rng.integers(len(ancestors)))])
            snapshot.add(Triple(item.subject, item.predicate, value))
    return snapshot
