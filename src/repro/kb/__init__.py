"""Freebase-like knowledge-base substrate.

The paper stores knowledge as ``(subject, predicate, object)`` triples whose
subjects/predicates come from Freebase and whose objects are entities,
strings, or numbers.  This subpackage provides that substrate: typed object
values, triples and data items, a 2-level type/predicate schema with
functional and non-functional predicates, an entity registry with
mid-style identifiers and aliases, an indexed triple store, a containment
hierarchy over values, and the local closed-world assumption (LCWA)
labeller used to build gold standards.
"""

from repro.kb.values import (
    Value,
    EntityRef,
    StringValue,
    NumberValue,
    DateValue,
)
from repro.kb.triples import Triple, DataItem
from repro.kb.schema import Predicate, EntityType, Schema, ValueKind
from repro.kb.entities import Entity, EntityRegistry
from repro.kb.store import KnowledgeBase
from repro.kb.hierarchy import ValueHierarchy
from repro.kb.lcwa import LCWALabeler

__all__ = [
    "Value",
    "EntityRef",
    "StringValue",
    "NumberValue",
    "DateValue",
    "Triple",
    "DataItem",
    "Predicate",
    "EntityType",
    "Schema",
    "ValueKind",
    "Entity",
    "EntityRegistry",
    "KnowledgeBase",
    "ValueHierarchy",
    "LCWALabeler",
]
