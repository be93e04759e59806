"""The wire-codec layer: what shard payloads look like on the boundary.

Every byte a parallel job ships between the parent and a worker process
goes through :mod:`pickle`; *what* gets pickled is the difference between
a shuffle that scales and one that drowns in serialization.  This module
is the single place that contract lives:

- :class:`WireCodec` — a symmetric ``encode`` (worker side, before the
  payload crosses back to the parent) / ``decode`` (parent side) pair.
  :class:`~repro.mapreduce.executors.ShardedMapJob` accepts one; the
  extraction stage's compact-tuple record codec
  (:func:`repro.extract.records.records_to_wire` /
  ``records_from_wire``) is the canonical instance.
- :func:`scan_payload_types` — a recursive audit of a payload's value
  types, used by the test suite to *prove* that shard payloads carry no
  heavyweight domain objects (``Triple``/``DataItem``/``ExtractionRecord``),
  only primitives, tuples, and contiguous numpy buffers.

The contract both producers follow (see ``mapreduce/README.md``):

1. **Shard task payloads are flat.**  Work items cross as primitives
   (ints, strings) or numpy arrays.
2. **Heavyweight invariant state never rides in a payload.**  Objects
   that every shard needs but no shard changes (the extractor fleet) are
   installed *pool-resident* via
   :meth:`~repro.mapreduce.executors.ParallelExecutor.install_state`,
   crossing once per pool — not once per shard — on both ``fork`` and
   ``spawn`` start methods.
3. **Per-round state never rides in a payload either.**  Buffers that
   change each round but are shared by every shard of the round (a
   fusion round's accuracy vector and active mask, and the claim CSR
   beside them — the one map stage of a round, Stage I, reads nothing
   else) cross through the
   executors' round-state channel
   (:meth:`~repro.mapreduce.executors.ParallelExecutor.install_round_state`
   — one shared-memory segment per round); the spec carries
   only the tiny :class:`~repro.mapreduce.executors.RoundStateHandle`.
4. **Codecs are exact.**  ``decode(encode(x))`` must round-trip ``x``
   bit-for-bit; the serial path skips the codec entirely, so any lossy
   codec would break serial/parallel parity.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = ["WireCodec", "scan_payload_types"]


@dataclass(frozen=True)
class WireCodec:
    """A symmetric shard-output codec.

    ``encode`` runs in the worker, compacting one shard output before it
    crosses the process boundary; ``decode`` runs in the parent and must
    invert it exactly.  ``encode`` must be picklable (it ships inside the
    job spec); ``decode`` runs only in the parent and may be a closure.
    """

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


def scan_payload_types(payload: Any, _seen: set[int] | None = None) -> set[type]:
    """Every concrete type reachable inside ``payload``.

    Walks tuples/lists/sets/frozensets/deques/dicts (including
    ``defaultdict`` factories), numpy array dtypes (via one scalar probe
    for object arrays), and ``memoryview`` backing objects, so tests can
    assert shard payloads are free of domain objects.  Dataclass payload
    wrappers are descended into via ``__dict__`` / ``__slots__`` so
    smuggling an object inside a spec does not escape the audit.
    """
    if _seen is None:
        _seen = set()
    if id(payload) in _seen:
        return set()
    _seen.add(id(payload))

    types: set[type] = {type(payload)}
    if isinstance(payload, np.ndarray):
        if payload.dtype == object:
            for element in payload.flat:
                types |= scan_payload_types(element, _seen)
        return types
    if isinstance(payload, (bytes, bytearray, str)):
        # Leaf buffers: iterating them would report int/str per element.
        return types
    if isinstance(payload, memoryview):
        # A memoryview is a window onto another object's buffer; audit
        # the backing object — that is what actually gets shipped.
        types |= scan_payload_types(payload.obj, _seen)
        return types
    if isinstance(
        payload, (tuple, list, set, frozenset, collections.deque)
    ):
        for element in payload:
            types |= scan_payload_types(element, _seen)
        return types
    if isinstance(payload, dict):
        factory = getattr(payload, "default_factory", None)
        if factory is not None and not isinstance(factory, type):
            # A defaultdict whose factory is a closure/lambda/partial can
            # smuggle captured state; audit it.  Bare type factories
            # (list, set, int) carry nothing.
            types |= scan_payload_types(factory, _seen)
        for key, value in payload.items():
            types |= scan_payload_types(key, _seen)
            types |= scan_payload_types(value, _seen)
        return types
    for attrs in (getattr(payload, "__dict__", None),):
        if attrs:
            types |= scan_payload_types(attrs, _seen)
    for slot in getattr(type(payload), "__slots__", ()) or ():
        if hasattr(payload, slot):
            types |= scan_payload_types(getattr(payload, slot), _seen)
    return types
