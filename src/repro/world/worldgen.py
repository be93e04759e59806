"""Ground-truth world generation.

Builds the latent world the web will (imperfectly) describe:

- entities per type with a Zipf popularity skew (a few famous entities draw
  most page mentions — the paper's heavy head / long tail);
- a containment hierarchy over locations (continent > country > region >
  city) for the specific/general phenomena of §4.4;
- aliases, including deliberately *shared* aliases (confusable clusters),
  the raw material of entity-linkage errors;
- truth sets per data item: single truths for functional predicates,
  ``1 + Geometric`` truths for non-functional ones (mostly 1-2, per
  Figure 20).
"""

from __future__ import annotations

import numpy as np

from repro.kb.entities import Entity, EntityRegistry
from repro.kb.hierarchy import ValueHierarchy
from repro.kb.schema import Predicate, ValueKind
from repro.kb.triples import DataItem
from repro.kb.values import DateValue, EntityRef, NumberValue, StringValue, Value
from repro.rng import named_rng, zipf_weights
from repro.world.catalog import TypeSpec, build_schema, predicate_spec
from repro.world.config import WorldConfig
from repro.world.facts import World
from repro.world.naming import NameForge

__all__ = ["generate_world"]

_LOCATION_TYPE = "location/location"
# Share of location entities at each hierarchy level, cities last.
_LOCATION_LEVELS = (("continent", 0.03), ("country", 0.12), ("region", 0.25), ("city", 0.60))

# The world's shape, fixed like the paper's model parameters; with the web's
# constants in ``webgen`` they make the corpus track Tables 1-3 and Figures
# 3-7 at every scale preset.

#: Skew exponent for entity popularity inside a type: popular entities are
#: mentioned by more pages (heavy head, long tail).
ENTITY_ZIPF = 1.1
#: Probability that an (entity, predicate) data item has any truth at all.
FACT_FILL_RATE = 0.75
#: A non-functional predicate has ``1 + Geometric(p)`` truths, capped at its
#: ``max_truths``; this is ``p`` (mostly 1-2 truths, matching Figure 20).
MULTI_TRUTH_GEOMETRIC = 0.62
#: Probability an entity gets an extra alias.
ALIAS_RATE = 0.35
#: Probability an entity *shares* an alias with another entity (the raw
#: material of entity-linkage errors).
CONFUSABLE_RATE = 0.12


def _allocate_entities(
    specs: tuple[TypeSpec, ...], n_entities: int
) -> dict[str, int]:
    """Split the entity budget across types proportionally to their weight."""
    weights = np.array([spec.entity_weight for spec in specs], dtype=float)
    weights = weights / weights.sum()
    counts = np.maximum(5, np.round(weights * n_entities).astype(int))
    return {spec.type_id: int(c) for spec, c in zip(specs, counts)}


def _generate_locations(
    count: int,
    forge: NameForge,
    registry: EntityRegistry,
    hierarchy: ValueHierarchy,
    rng: np.random.Generator,
    next_mid,
) -> list[str]:
    """Create location entities level by level, wiring containment edges."""
    level_counts: list[int] = []
    remaining = count
    for _, share in _LOCATION_LEVELS[:-1]:
        n = max(1, int(round(count * share)))
        level_counts.append(n)
        remaining -= n
    level_counts.append(max(1, remaining))

    levels: list[list[str]] = []
    for (level_name, _), n in zip(_LOCATION_LEVELS, level_counts):
        ids: list[str] = []
        for _ in range(n):
            entity_id = next_mid()
            name = forge.place_name()
            registry.add(
                Entity(
                    entity_id=entity_id,
                    type_ids=(_LOCATION_TYPE,),
                    name=name,
                )
            )
            if levels:  # attach to a random parent one level up
                parents = levels[-1]
                parent = parents[int(rng.integers(len(parents)))]
                hierarchy.add_edge(entity_id, parent)
            ids.append(entity_id)
        levels.append(ids)
    return [eid for level in levels for eid in level]


def _leaf_locations(registry: EntityRegistry, hierarchy: ValueHierarchy) -> list[str]:
    """Location entities with no children — the 'city' level."""
    return [
        entity.entity_id
        for entity in registry.of_type(_LOCATION_TYPE)
        if not hierarchy.children(entity.entity_id)
    ]


def _literal_value(
    spec, predicate: Predicate, forge: NameForge, rng: np.random.Generator
) -> Value:
    """Draw one literal truth for a non-entity-valued predicate."""
    if predicate.value_kind is ValueKind.DATE:
        return DateValue(forge.date())
    if predicate.value_kind is ValueKind.NUMBER:
        lo, hi = spec.number_range if spec.number_range else (1.0, 1000.0)
        if hi / max(lo, 1.0) > 1000:
            # Wide ranges (population) are sampled log-uniformly.
            value = float(np.exp(rng.uniform(np.log(max(lo, 1.0)), np.log(hi))))
            return NumberValue(float(round(value)))
        return NumberValue(float(int(rng.integers(int(lo), int(hi) + 1))))
    vocab = spec.literal_vocab or "genre"
    return StringValue(getattr(forge, vocab)())


def generate_world(config: WorldConfig, seed: int) -> World:
    """Generate a deterministic :class:`World` from ``config`` and ``seed``."""
    rng = named_rng(seed, "worldgen")
    forge = NameForge(rng=named_rng(seed, "worldgen.names"))
    schema, specs = build_schema(config.n_types)
    registry = EntityRegistry()
    hierarchy = ValueHierarchy()

    mid_counter = 0

    def next_mid() -> str:
        nonlocal mid_counter
        mid_counter += 1
        return f"/m/{mid_counter:06x}"

    counts = _allocate_entities(specs, config.n_entities)

    # Entities (locations first: other types' truths point at them).
    namer_by_type = {spec.type_id: spec.namer for spec in specs}
    ordered_types = sorted(
        counts, key=lambda t: 0 if t == _LOCATION_TYPE else 1
    )
    for type_id in ordered_types:
        n = counts[type_id]
        if type_id == _LOCATION_TYPE:
            _generate_locations(n, forge, registry, hierarchy, rng, next_mid)
            continue
        namer = getattr(forge, namer_by_type[type_id])
        for _ in range(n):
            registry.add(
                Entity(entity_id=next_mid(), type_ids=(type_id,), name=namer())
            )

    # Aliases and confusable clusters.  We mutate by re-adding is not
    # possible (registry is append-only), so aliases are decided before a
    # second pass builds the final registry.
    base_entities = list(registry)
    final_registry = EntityRegistry()
    alias_plan: dict[str, list[str]] = {e.entity_id: [] for e in base_entities}
    for entity in base_entities:
        if rng.random() < ALIAS_RATE:
            alias_plan[entity.entity_id].append(forge.alias_for(entity.name))
    for entity in base_entities:
        if rng.random() < CONFUSABLE_RATE:
            other = base_entities[int(rng.integers(len(base_entities)))]
            if other.entity_id != entity.entity_id:
                # Share the other entity's canonical name as our alias: both
                # now answer to the same surface form.
                alias_plan[entity.entity_id].append(other.name)
    for entity in base_entities:
        aliases = tuple(dict.fromkeys(alias_plan[entity.entity_id]))
        final_registry.add(
            Entity(
                entity_id=entity.entity_id,
                type_ids=entity.type_ids,
                name=entity.name,
                aliases=aliases,
            )
        )
    registry = final_registry

    # Popularity: Zipf within each type, scaled by the type's weight.
    popularity: dict[str, float] = {}
    weight_by_type = {spec.type_id: spec.entity_weight for spec in specs}
    for type_id in counts:
        members = registry.of_type(type_id)
        if not members:
            continue
        ranks = zipf_weights(len(members), ENTITY_ZIPF)
        order = rng.permutation(len(members))
        for position, member_index in enumerate(order):
            entity = members[int(member_index)]
            popularity[entity.entity_id] = float(
                ranks[position] * weight_by_type[type_id]
            )

    # Truth sets.
    leaf_locs = _leaf_locations(registry, hierarchy)
    truths: dict[DataItem, tuple[Value, ...]] = {}
    spec_by_type = {spec.type_id: spec for spec in specs}
    for entity in registry:
        type_spec = spec_by_type[entity.primary_type]
        for predicate in schema.predicates_of_type(entity.primary_type):
            if rng.random() >= FACT_FILL_RATE:
                continue
            pspec = predicate_spec(specs, predicate.pid)
            if predicate.functional:
                n_truths = 1
            else:
                n_truths = min(
                    1 + int(rng.geometric(MULTI_TRUTH_GEOMETRIC)) - 1,
                    predicate.max_truths,
                )
                n_truths = max(1, n_truths)
            values: list[Value] = []
            seen: set[Value] = set()
            attempts = 0
            while len(values) < n_truths and attempts < 30:
                attempts += 1
                if predicate.value_kind is ValueKind.ENTITY:
                    if predicate.hierarchical:
                        if not leaf_locs:
                            break
                        target = leaf_locs[int(rng.integers(len(leaf_locs)))]
                    else:
                        candidates = registry.of_type(predicate.object_type_id)
                        if not candidates:
                            break
                        pick = candidates[int(rng.integers(len(candidates)))]
                        target = pick.entity_id
                        if target == entity.entity_id:
                            continue
                    value: Value = EntityRef(target)
                else:
                    value = _literal_value(pspec, predicate, forge, rng)
                if value in seen:
                    continue
                seen.add(value)
                values.append(value)
            if values:
                item = DataItem(entity.entity_id, predicate.pid)
                truths[item] = tuple(values)

    return World(
        config=config,
        master_seed=seed,
        schema=schema,
        specs=specs,
        entities=registry,
        hierarchy=hierarchy,
        truths=truths,
        popularity=popularity,
    )
