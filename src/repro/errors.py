"""Exception hierarchy for the knowledge-fusion reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch a single type at the library boundary.  Subclasses are
deliberately narrow: they mark *which subsystem* rejected the input, which
is the most useful piece of context when a fusion pipeline is assembled
from many configurable parts.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object is internally inconsistent or out of range."""


class SchemaError(ReproError):
    """A type, predicate, or value violates the knowledge-base schema."""


class ExtractionError(ReproError):
    """An extractor was fed content it cannot process."""


class FusionError(ReproError):
    """A fusion method received observations it cannot fuse."""


class EvaluationError(ReproError):
    """A metric was asked to evaluate ill-formed predictions."""


class ExperimentError(ReproError):
    """An experiment id is unknown or an experiment failed to run."""


class WorkerPoolError(ReproError):
    """A process-pool worker died while running a job's shard."""
