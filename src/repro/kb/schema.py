"""Type and predicate schema.

The paper uses Freebase's shallow 2-level type hierarchy (e.g.
``people/person``) and a fixed predicate vocabulary where each predicate is
"associated with a single type and can be considered as the attribute of
entities in that type" (§3.1.1).  Predicates are either *functional* (one
true value per data item — birth date) or *non-functional* (several — a
person's children).  Table 3 shows 72% of predicates are non-functional;
the synthetic world generator targets that share.

Predicates also carry two generator-facing annotations that production
Freebase does not need:

``confusable_with``
    another predicate of the same type that extractors plausibly mistake
    this one for (the paper's predicate-linkage error: "mistaking the book
    author as the book editor").

``hierarchical``
    whether the object values live in a containment hierarchy (locations),
    enabling the specific/general confusions of §4.4 and direction 4 of §5.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import SchemaError

__all__ = ["ValueKind", "Predicate", "EntityType", "Schema"]


class ValueKind(enum.Enum):
    """What kind of object a predicate takes."""

    ENTITY = "entity"
    STRING = "string"
    NUMBER = "number"
    DATE = "date"


@dataclass(frozen=True, slots=True)
class Predicate:
    """A predicate in the knowledge-base schema.

    Attributes
    ----------
    pid:
        Full predicate id, ``<domain>/<type>/<name>`` (Freebase style).
    type_id:
        The entity type this predicate describes.
    value_kind:
        The kind of object values this predicate takes.
    functional:
        True if a data item with this predicate has a single true value.
    max_truths:
        Upper bound on the number of simultaneously-true values the world
        generator may assign (1 for functional predicates).
    object_type_id:
        For ENTITY-valued predicates, the type the object belongs to.
    confusable_with:
        Optional pid of a sibling predicate extractors may confuse this with.
    hierarchical:
        True if object values live in a containment hierarchy.
    """

    pid: str
    type_id: str
    value_kind: ValueKind
    functional: bool = True
    max_truths: int = 1
    object_type_id: str | None = None
    confusable_with: str | None = None
    hierarchical: bool = False

    def __post_init__(self) -> None:
        if self.functional and self.max_truths != 1:
            raise SchemaError(
                f"functional predicate {self.pid} must have max_truths == 1"
            )
        if not self.functional and self.max_truths < 2:
            raise SchemaError(
                f"non-functional predicate {self.pid} needs max_truths >= 2"
            )
        if self.value_kind is ValueKind.ENTITY and self.object_type_id is None:
            raise SchemaError(
                f"entity-valued predicate {self.pid} needs an object_type_id"
            )


@dataclass(frozen=True, slots=True)
class EntityType:
    """A 2-level Freebase-style type, e.g. ``people/person``."""

    type_id: str

    def __post_init__(self) -> None:
        if self.type_id.count("/") != 1:
            raise SchemaError(
                f"type id must be '<domain>/<name>', got {self.type_id!r}"
            )


@dataclass
class Schema:
    """The full type + predicate vocabulary of a knowledge base."""

    types: dict[str, EntityType] = field(default_factory=dict)
    predicates: dict[str, Predicate] = field(default_factory=dict)

    def add_type(self, entity_type: EntityType) -> EntityType:
        if entity_type.type_id in self.types:
            raise SchemaError(f"duplicate type {entity_type.type_id}")
        self.types[entity_type.type_id] = entity_type
        return entity_type

    def add_predicate(self, predicate: Predicate) -> Predicate:
        if predicate.pid in self.predicates:
            raise SchemaError(f"duplicate predicate {predicate.pid}")
        if predicate.type_id not in self.types:
            raise SchemaError(
                f"predicate {predicate.pid} references unknown type {predicate.type_id}"
            )
        self.predicates[predicate.pid] = predicate
        return predicate

    def predicate(self, pid: str) -> Predicate:
        try:
            return self.predicates[pid]
        except KeyError:
            raise SchemaError(f"unknown predicate {pid!r}") from None

    def predicates_of_type(self, type_id: str) -> list[Predicate]:
        """All predicates attached to ``type_id``, in pid order."""
        return sorted(
            (p for p in self.predicates.values() if p.type_id == type_id),
            key=lambda p: p.pid,
        )

    def validate(self) -> None:
        """Check cross-references (confusable_with, object types)."""
        for predicate in self.predicates.values():
            if predicate.confusable_with is not None:
                other = self.predicates.get(predicate.confusable_with)
                if other is None:
                    raise SchemaError(
                        f"{predicate.pid} confusable with unknown predicate "
                        f"{predicate.confusable_with}"
                    )
                if other.type_id != predicate.type_id:
                    raise SchemaError(
                        f"{predicate.pid} confusable with {other.pid} of a "
                        "different type"
                    )
            if (
                predicate.object_type_id is not None
                and predicate.object_type_id not in self.types
            ):
                raise SchemaError(
                    f"{predicate.pid} has unknown object type "
                    f"{predicate.object_type_id}"
                )
