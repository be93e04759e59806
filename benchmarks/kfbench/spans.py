"""In-memory span recorder for the traced replica.

One :class:`Tracer` per traced rep.  Spans are opened around calls into
the program's public functions *from the benchmark's own files* (the
program itself carries no tracing yet); they stay in memory and are
written out as ``trace-<workload>.jsonl`` when the benchmark ends.  A
span's self time is its duration minus the part its children cover.

Span levels follow the data / information / knowledge vocabulary of
arXiv 2001.04171: ``data`` is world and page generation and the artifact
cache, ``information`` is extraction (pages → records), ``knowledge`` is
claim matrices, gold labels and fusion.  ``harness`` marks the
benchmark's own grouping spans (the rep root, the probes group).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

LEVELS = ("data", "information", "knowledge", "harness")


@dataclass
class Span:
    id: int
    name: str
    level: str
    parent: int | None
    workload: str
    rep: int
    start: float
    end: float = 0.0


class Tracer:
    """Records a tree of spans and a flat dict of counters for one rep."""

    def __init__(self, workload: str, rep: int = 0) -> None:
        self.workload = workload
        self.rep = rep
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, level: str | None = None):
        """Time the body as one span; ``level`` defaults to the parent's."""
        parent = self._stack[-1] if self._stack else None
        if level is None:
            level = parent.level if parent is not None else "harness"
        if level not in LEVELS:
            raise ValueError(f"span level must be one of {LEVELS}, got {level!r}")
        span = Span(
            id=len(self.spans),
            name=name,
            level=level,
            parent=parent.id if parent is not None else None,
            workload=self.workload,
            rep=self.rep,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def timed_iter(self, name: str, level: str, iterable):
        """Yield from ``iterable`` with one span around each ``next()``.

        The span is closed before the item is handed to the consumer, so
        only the producer's own work is charged to ``name``.
        """
        iterator = iter(iterable)
        while True:
            with self.span(name, level):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    def to_rows(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def descendants(rows: list[dict], root: int) -> set[int]:
    """Ids of every span strictly below ``root`` (rows are in open order)."""
    below: set[int] = set()
    for row in rows:
        if row["parent"] == root or row["parent"] in below:
            below.add(row["id"])
    return below


def children_total(rows: list[dict], parent: int) -> float:
    """Summed duration of the direct children of span ``parent``."""
    return sum(row["end"] - row["start"] for row in rows if row["parent"] == parent)


def self_time(rows: list[dict], span_id: int) -> float:
    row = rows[span_id]
    return (row["end"] - row["start"]) - children_total(rows, span_id)


def find(rows: list[dict], name: str) -> dict:
    """The one span called ``name``; raises if absent or ambiguous."""
    matches = [row for row in rows if row["name"] == name]
    if len(matches) != 1:
        raise LookupError(f"expected exactly one span named {name!r}, got {len(matches)}")
    return matches[0]
