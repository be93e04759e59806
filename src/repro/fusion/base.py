"""Fuser interface, configuration, and result type.

All fusers share one configuration surface (:class:`FusionConfig`) carrying
the paper's parameters — ``N`` uniformly-distributed false values and
default accuracy ``A`` for the Bayesian analysis, sampling bound ``L``,
round budget ``R``, the provenance granularity, and the two provenance
filters of §4.3.2.  Gold-standard labels for semi-supervised accuracy
initialisation (§4.3.3) are passed to the fuser separately because they
are data, not configuration.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.fusion.observations import FusionInput, ProvKey
from repro.fusion.provenance import Granularity
from repro.kb.triples import Triple
from repro.mapreduce.executors import (
    EXECUTION_MODES,
    FUSION_MODES,
    ExecutionPlan,
    fusion_mode_name,
)

__all__ = [
    "BACKENDS",
    "PARITY_BITWISE",
    "PARITY_TOLERANCE",
    "PARITY_TOLERANCE_ABS",
    "parity_of",
    "backend_contract",
    "sampling_contract_of",
    "FusionConfig",
    "FusionResult",
    "Fuser",
]

#: Execution backends for the fusion pipeline: the fusion-stage view of
#: the one mode table (:data:`repro.mapreduce.executors.EXECUTION_MODES`;
#: the README's "Execution backends" table has the contracts).
BACKENDS = FUSION_MODES

#: Numeric parity contracts a fusion run can honour (recorded per run in
#: ``result.diagnostics["parity"]``):
#: - ``bitwise``: every float operation matches the serial reference in
#:   the identical order — outputs are equal bit-for-bit, at any worker
#:   count and start method, independent of ``PYTHONHASHSEED``;
#: - ``tolerance``: batched summation order differs from the scalar
#:   reference, so outputs agree only to :data:`PARITY_TOLERANCE_ABS`
#:   (absolute).  Golden tests may freeze exact numbers only for
#:   ``bitwise`` runs.
PARITY_BITWISE = "bitwise"
PARITY_TOLERANCE = "tolerance"

#: The documented absolute tolerance of ``tolerance``-parity backends
#: (vectorized / hybrid) against the scalar serial reference.  The
#: kernels empirically sit near 1e-12; 1e-9 is the contractual bound the
#: test suite and benchmarks assert.
PARITY_TOLERANCE_ABS = 1e-9


def parity_of(backend_used: str) -> str:
    """The numeric parity contract of a resolved ``backend_used`` string.

    ``tolerance`` iff a batched kernel actually ran.  The fallback
    spellings (``"serial (vectorized fallback)"``, ``"parallel (hybrid
    fallback)"``) name the scalar mode that ran, so they are bitwise; a
    stem that is no fusion backend is an error, never silently bitwise.
    """
    stem = backend_used.split(" ", 1)[0]
    if stem not in BACKENDS:
        raise ConfigError(
            f"backend_used {backend_used!r} does not start with one of {BACKENDS}"
        )
    return PARITY_TOLERANCE if EXECUTION_MODES[stem].batched else PARITY_BITWISE


def backend_contract(requested: str, ran: ExecutionPlan) -> dict[str, str]:
    """The ``backend`` / ``backend_used`` / ``parity`` diagnostics of a run
    that was asked for ``requested`` and executed the ``ran`` mode.

    When a batched kernel could not engage, ``ran`` is the scalar mode in
    the same place, spelled ``"<ran> (<requested> fallback)"``.
    """
    used = fusion_mode_name(ran)
    if used != requested:
        used = f"{used} ({requested} fallback)"
    return {"backend": requested, "backend_used": used, "parity": parity_of(used)}


def sampling_contract_of(config: "FusionConfig") -> str:
    """The reducer-input sampling contract tag for diagnostics.

    ``"canonical-order"`` when the sampling bound ``L`` is set: sampled
    subsets are drawn against each key's values in canonical (sorted)
    order, so every backend — serial, parallel shards, fallbacks — picks
    identical subsets.  ``"unbounded"`` when sampling is disabled.
    """
    return "canonical-order" if config.sample_limit is not None else "unbounded"


@dataclass(frozen=True)
class FusionConfig:
    """Shared fusion parameters (paper defaults).

    Attributes
    ----------
    granularity:
        How records are flattened into provenances (§4.1 / §4.3.1).
    n_false_values:
        ACCU's ``N``: the assumed count of uniformly-distributed false
        values per data item (default 100).
    default_accuracy:
        The initial accuracy ``A`` of every provenance (default 0.8).
    max_rounds:
        Forced termination after ``R`` rounds (default 5).
    sample_limit:
        Reducer-input sampling bound ``L`` (default 1M; the paper also
        evaluates 1K).  None disables sampling.
    convergence_tol:
        Stop earlier when the max accuracy change falls below this.
    filter_by_coverage:
        §4.3.2 refinement I: ignore provenances whose accuracy can never be
        re-evaluated away from the default.
    min_accuracy:
        §4.3.2 refinement III (θ): ignore provenances whose accuracy falls
        below θ; data items losing all provenances fall back to the mean
        accuracy of their provenances.  None disables the filter.
    gold_sample_rate:
        §4.3.3: fraction of the gold standard used for initialisation
        (Figure 12 sweeps 10/20/50/100%).
    seed:
        Seed for deterministic reducer sampling and gold subsampling.
    backend:
        Execution backend, one of :data:`BACKENDS` (default ``serial``).
        Scalar-kernel modes honour the ``bitwise`` parity contract,
        batched-kernel modes the ``tolerance`` one (see :func:`parity_of`).
    n_workers:
        Worker-process count for the pooled backends (None = CPU
        count); ignored by the in-process ones.
    """

    granularity: Granularity = Granularity.EXTRACTOR_URL
    n_false_values: int = 100
    default_accuracy: float = 0.8
    max_rounds: int = 5
    sample_limit: int | None = 1_000_000
    convergence_tol: float = 1e-4
    filter_by_coverage: bool = False
    min_accuracy: float | None = None
    gold_sample_rate: float = 1.0
    seed: int = 0
    backend: str = "serial"
    n_workers: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1 or None, got {self.n_workers}")
        if self.n_false_values < 1:
            raise ConfigError(f"n_false_values must be >= 1, got {self.n_false_values}")
        if not 0.0 < self.default_accuracy < 1.0:
            raise ConfigError(
                f"default_accuracy must be in (0, 1), got {self.default_accuracy}"
            )
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.sample_limit is not None and self.sample_limit < 1:
            raise ConfigError(
                f"sample_limit must be >= 1 or None, got {self.sample_limit}"
            )
        if self.min_accuracy is not None and not 0.0 <= self.min_accuracy <= 1.0:
            raise ConfigError(
                f"min_accuracy must be in [0, 1] or None, got {self.min_accuracy}"
            )
        if not 0.0 <= self.gold_sample_rate <= 1.0:
            raise ConfigError(
                f"gold_sample_rate must be in [0, 1], got {self.gold_sample_rate}"
            )


@dataclass
class FusionResult:
    """Output of one fusion run.

    ``probabilities`` maps every predicted triple to its truthfulness
    probability; ``unpredicted`` holds triples the method declined to score
    (all their provenances were filtered — the paper reports 8.2% of
    triples in that state under the coverage filter).  ``accuracies`` is
    the final per-provenance accuracy estimate; ``rounds`` the number of
    Stage I/II iterations actually run.
    """

    method: str
    probabilities: dict[Triple, float]
    unpredicted: set[Triple] = field(default_factory=set)
    accuracies: dict[ProvKey, float] = field(default_factory=dict)
    rounds: int = 0
    converged: bool = False
    diagnostics: dict = field(default_factory=dict)

    def coverage(self) -> float:
        """Fraction of triples that received a probability."""
        total = len(self.probabilities) + len(self.unpredicted)
        if total == 0:
            return 0.0
        return len(self.probabilities) / total

    def validate(self) -> None:
        """Sanity-check all probabilities are in [0, 1]."""
        for triple, probability in self.probabilities.items():
            if not 0.0 <= probability <= 1.0:
                raise ConfigError(
                    f"probability out of range for {triple.canonical()}: "
                    f"{probability}"
                )


class Fuser(abc.ABC):
    """A fusion method: FusionInput -> FusionResult."""

    def __init__(
        self,
        config: FusionConfig | None = None,
        gold_labels: dict[Triple, bool] | None = None,
    ) -> None:
        self.config = config if config is not None else FusionConfig()
        self.gold_labels = gold_labels

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Method name for reports (e.g. ``POPACCU+``)."""

    @abc.abstractmethod
    def fuse(self, fusion_input: FusionInput, executor=None) -> FusionResult:
        """Compute truthfulness probabilities for every unique triple.

        ``executor`` optionally supplies a caller-managed
        :class:`~repro.mapreduce.executors.Executor` shared with other
        pipeline stages (the caller closes it); implementations that run
        purely in-process may ignore it.
        """
