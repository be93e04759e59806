"""Object values for knowledge triples.

The paper's objects are "an entity in Freebase, a string, or a number"
(§3.1.1); dates appear throughout the examples (birth dates), so they get
their own kind too.  Values are small frozen dataclasses: hashable, ordered
deterministically, and with a stable canonical text form used for
serialisation and for the surface realisation done by the web generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = ["EntityRef", "StringValue", "NumberValue", "DateValue", "Value", "parse_value"]


@dataclass(frozen=True, slots=True, order=True)
class EntityRef:
    """A reference to an entity by its mid-style identifier (e.g. ``/m/07r1h``)."""

    entity_id: str

    def canonical(self) -> str:
        return f"entity:{self.entity_id}"


@dataclass(frozen=True, slots=True, order=True)
class StringValue:
    """A raw string object (names, descriptions, addresses)."""

    text: str

    def canonical(self) -> str:
        return f"string:{self.text}"


@dataclass(frozen=True, slots=True, order=True)
class NumberValue:
    """A numeric object.

    Numbers are stored as floats but rendered without a trailing ``.0`` when
    integral, so the canonical form of ``NumberValue(1986.0)`` is
    ``number:1986`` — matching how numbers appear on web pages.  Values are
    normalised at construction to the precision of their canonical text
    (``%g``), so a value always round-trips: the binary-float residue of
    arithmetic like ``1956 * 0.1`` cannot make two values that *print*
    identically compare unequal.
    """

    value: float

    def __post_init__(self) -> None:
        value = float(self.value)
        if not value.is_integer():
            value = float(f"{value:g}")
        object.__setattr__(self, "value", value)

    def canonical(self) -> str:
        if float(self.value).is_integer():
            return f"number:{int(self.value)}"
        return f"number:{self.value:g}"


@dataclass(frozen=True, slots=True, order=True)
class DateValue:
    """A calendar date in ISO ``YYYY-MM-DD`` form."""

    iso: str

    def canonical(self) -> str:
        return f"date:{self.iso}"


Value = Union[EntityRef, StringValue, NumberValue, DateValue]

_PARSERS = {
    "entity": lambda payload: EntityRef(payload),
    "string": lambda payload: StringValue(payload),
    "number": lambda payload: NumberValue(float(payload)),
    "date": lambda payload: DateValue(payload),
}


def parse_value(canonical: str) -> Value:
    """Inverse of ``Value.canonical()``.

    >>> parse_value("entity:/m/07r1h")
    EntityRef(entity_id='/m/07r1h')
    >>> parse_value("number:1986")
    NumberValue(value=1986.0)
    """
    kind, sep, payload = canonical.partition(":")
    if not sep or kind not in _PARSERS:
        raise ValueError(f"not a canonical value string: {canonical!r}")
    return _PARSERS[kind](payload)
