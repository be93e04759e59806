"""Map-shuffle-reduce with deterministic ordering and reducer sampling.

The engine is deliberately faithful to the MapReduce contract the paper's
implementation relies on:

- the **mapper** turns each input record into zero or more ``(key, value)``
  pairs;
- the **shuffle** groups values by key; reducers see keys in sorted order,
  so runs are reproducible regardless of input order;
- the **reducer** sees ``(key, values)`` and emits zero or more outputs;
- when a key's value list exceeds ``sample_limit`` (the paper's ``L``,
  §4.1: "we sample L triples each time instead of using all triples"), a
  deterministic per-key sample is taken before reducing — the skew-taming
  trick the paper uses against 2.7M-claim data items.

This keyed dataflow is the in-process engine of the fusion reference
oracle (:mod:`tests.oracle.fusion`), nothing more: it takes no executor
and starts no worker.  It was ``repro.mapreduce.engine`` until the
``serial`` backend stopped running on it, and moved here unchanged.  The
production backends reproduce its results — sampled subsets included —
over int-coded columns (:mod:`repro.fusion.shuffle`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import FusionError
from repro.fusion.shuffle import sample_positions

__all__ = ["MapReduceJob", "MapReduceEngine"]

Mapper = Callable[[Any], Iterable[tuple[Any, Any]]]
Reducer = Callable[[Any, list], Iterable[Any]]


@dataclass(frozen=True)
class MapReduceJob:
    """One map+reduce stage.

    ``sample_limit`` bounds the number of values any reducer sees for one
    key (None = unbounded); sampling is deterministic in ``seed`` and the
    key, so re-running the job reproduces the result exactly.

    ``sample_key`` opts the job into the *canonical-order sampling
    contract*: when sampling engages for a key, its values are first
    sorted by this key, so the sampled subset is a function of the value
    *set* rather than the arrival order.  Jobs whose sampled subsets must
    be reproducible by sharded backends that enumerate values in a
    different (but canonically sortable) order — the fusion stages over
    the columnar shuffle — must set it; ``None`` keeps the legacy
    value-order draw.
    """

    name: str
    mapper: Mapper
    reducer: Reducer
    sample_limit: int | None = None
    seed: int = 0
    sample_key: Callable[[Any], Any] | None = None

    def __post_init__(self) -> None:
        if self.sample_limit is not None and self.sample_limit < 1:
            raise FusionError(
                f"job {self.name}: sample_limit must be >= 1 or None, "
                f"got {self.sample_limit}"
            )


class MapReduceEngine:
    """In-process engine: map, shuffle, sorted-key reduce with sampling."""

    def run(self, records: Iterable[Any], job: MapReduceJob) -> list[Any]:
        """Execute ``job`` over ``records`` and return all reducer outputs."""
        groups: dict[Any, list] = {}
        for record in records:
            for key, value in job.mapper(record):
                groups.setdefault(key, []).append(value)
        outputs: list[Any] = []
        for key in sorted(groups):
            outputs.extend(job.reducer(key, sample_values(groups[key], key, job)))
        return outputs


def sample_values(values: list, key: Any, job: MapReduceJob) -> list:
    """Deterministic per-key sample of reducer input (the paper's L).

    Without ``job.sample_key`` the sample depends on ``(seed, name, key)``
    and the *value order* — historically the scalar dataflow's arrival
    order, which no sharded backend can reproduce.  With it the values
    are put in canonical order before the positional draw, making the
    sampled subset a property of the key's value *set*: any backend that
    enumerates the same values canonically (the columnar shuffle does, by
    construction of its sorted CSR layout) picks the identical subset.
    """
    positions = sample_positions(
        len(values), key, job.name, job.sample_limit, job.seed
    )
    if positions is None:
        return values
    if job.sample_key is not None:
        values = sorted(values, key=job.sample_key)
    return [values[i] for i in positions]
