"""Fuser interface, configuration, and result type.

All fusers share one configuration surface (:class:`FusionConfig`) carrying
the parameters the paper's experiments vary — sampling bound ``L``, round
budget ``R``, the provenance granularity, the two provenance filters of
§4.3.2 and the gold sample of §4.3.3 — plus the execution backend.  The
two it fixes, ``N`` uniformly-distributed false values and default
accuracy ``A`` of the Bayesian analysis, are the module constants
:data:`N_FALSE_VALUES` and :data:`DEFAULT_ACCURACY`.  Gold-standard labels
for semi-supervised accuracy initialisation (§4.3.3) are passed to the
fuser separately because they are data, not configuration.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigError
from repro.fusion.observations import ColumnarClaims, FusionInput, ProvKey
from repro.fusion.provenance import Granularity
from repro.kb.triples import Triple
from repro.mapreduce.executors import EXECUTION_MODES, FUSION_MODES

__all__ = [
    "N_FALSE_VALUES",
    "DEFAULT_ACCURACY",
    "PARITY_BITWISE",
    "PARITY_TOLERANCE",
    "PARITY_TOLERANCE_ABS",
    "parity_of",
    "backend_contract",
    "sampling_contract_of",
    "FusionConfig",
    "FusionResult",
    "ResultColumns",
    "check_unit_interval",
    "Fuser",
]

#: ACCU's ``N``: the count of uniformly-distributed false values the
#: Bayesian analysis assumes per data item.  The paper fixes it at 100.
N_FALSE_VALUES = 100

#: The initial accuracy ``A`` of every provenance; the paper's 0.8.  One
#: default provenance then gives a lone claim probability 0.8.
DEFAULT_ACCURACY = 0.8

#: Numeric parity contracts a fusion run can honour (recorded per run in
#: ``result.diagnostics["parity"]``):
#: - ``bitwise``: the serial reference itself — canonical-order float
#:   sums, independent of ``PYTHONHASHSEED``;
#: - ``tolerance``: batched summation order differs from the exact
#:   reference, so outputs agree only to :data:`PARITY_TOLERANCE_ABS`
#:   (absolute).  Golden tests may freeze exact numbers only for
#:   ``bitwise`` runs.
PARITY_BITWISE = "bitwise"
PARITY_TOLERANCE = "tolerance"

#: The documented absolute tolerance of ``tolerance``-parity backends
#: (vectorized / hybrid) against the exact serial reference.  The
#: kernels empirically sit near 1e-12; 1e-9 is the contractual bound the
#: test suite and benchmarks assert.
PARITY_TOLERANCE_ABS = 1e-9


def parity_of(backend: str) -> str:
    """The numeric parity contract of fusion backend ``backend``:
    ``tolerance`` iff it runs the batched kernel.  A name that is no
    fusion backend is an error, never silently bitwise."""
    if backend not in FUSION_MODES:
        raise ConfigError(f"backend {backend!r} is not one of {FUSION_MODES}")
    return PARITY_TOLERANCE if EXECUTION_MODES[backend].batched else PARITY_BITWISE


def backend_contract(backend: str) -> dict[str, str]:
    """The ``backend`` / ``backend_used`` / ``parity`` diagnostics of a run
    of ``backend`` — the mode that runs is the one requested."""
    return {"backend": backend, "backend_used": backend, "parity": parity_of(backend)}


def sampling_contract_of(config: "FusionConfig") -> str:
    """The reducer-input sampling contract tag for diagnostics.

    ``"canonical-order"`` when the sampling bound ``L`` is set: sampled
    subsets are drawn against each key's values in canonical (sorted)
    order, once per round in the parent, so every backend reads identical
    subsets.  ``"unbounded"`` when sampling is disabled.
    """
    return "canonical-order" if config.sample_limit is not None else "unbounded"


@dataclass(frozen=True)
class FusionConfig:
    """Shared fusion parameters (paper defaults).

    ``N`` and ``A`` are not fields: see :data:`N_FALSE_VALUES` and
    :data:`DEFAULT_ACCURACY`.

    Attributes
    ----------
    granularity:
        How records are flattened into provenances (§4.1 / §4.3.1).
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
        Execution backend, one of ``FUSION_MODES`` (default ``serial``).
        The exact ``serial`` mode honours the ``bitwise`` parity
        contract, the batched-kernel modes the ``tolerance`` one (see
        :func:`parity_of`).
    n_workers:
        Worker-process count for the pooled backends (None = CPU
        count); ignored by the in-process ones.
    """

    granularity: Granularity = Granularity.EXTRACTOR_URL
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
        if self.backend not in FUSION_MODES:
            raise ConfigError(
                f"backend must be one of {FUSION_MODES}, got {self.backend!r}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1 or None, got {self.n_workers}")
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


@dataclass(eq=False)  # ndarray fields: generated __eq__ would raise
class ResultColumns:
    """What a column-native fusion run emits, over the claim columns.

    ``rows`` are the predicted rows in emission order and ``posteriors``
    their probabilities, aligned; ``unpredicted`` marks, per row, the
    triples the method declined to score; ``accuracies`` is the final
    accuracy per provenance id (None when the method estimates none).
    """

    cols: ColumnarClaims
    rows: np.ndarray
    posteriors: np.ndarray
    unpredicted: np.ndarray
    accuracies: np.ndarray | None = None


def check_unit_interval(texts: list[str], rows: np.ndarray, values: np.ndarray) -> None:
    """Raise naming the first triple whose probability is outside [0, 1]
    (``values[k]`` belongs to the triple of text ``texts[rows[k]]``)."""
    bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
    if bad.size:
        raise ConfigError(
            f"probability out of range for {texts[rows[bad[0]]]}: {float(values[bad[0]])}"
        )


class FusionResult:
    """Output of one fusion run.

    The run's output is its :class:`ResultColumns`.  ``probabilities``
    maps every predicted triple to its truthfulness probability;
    ``unpredicted`` holds triples the method declined to score (all their
    provenances were filtered — the paper reports 8.2% of triples in that
    state under the coverage filter); ``accuracies`` is the final
    per-provenance accuracy estimate.  The three are views built from the
    columns on first read, each at most once, in emission order;
    assigning ``accuracies`` (as the §5 extensions do) replaces that view.
    The metrics never build them: they read the columns
    (:meth:`labelled_arrays`).  ``rounds`` is the number of Stage I/II
    iterations actually run.  A posterior outside [0, 1] raises at
    construction, naming its triple.
    """

    def __init__(
        self,
        method: str,
        columns: ResultColumns,
        rounds: int = 0,
        converged: bool = False,
        diagnostics: dict | None = None,
    ) -> None:
        check_unit_interval(columns.cols.texts, columns.rows, columns.posteriors)
        self.method = method
        self.columns = columns
        self.rounds = rounds
        self.converged = converged
        self.diagnostics = {} if diagnostics is None else diagnostics

    @cached_property
    def probabilities(self) -> dict[Triple, float]:
        columns = self.columns
        triples = columns.cols.triples
        return dict(
            zip(map(triples.__getitem__, columns.rows.tolist()), columns.posteriors.tolist())
        )

    @cached_property
    def unpredicted(self) -> set[Triple]:
        triples = self.columns.cols.triples
        return set(map(triples.__getitem__, np.flatnonzero(self.columns.unpredicted).tolist()))

    @cached_property
    def accuracies(self) -> dict[ProvKey, float]:
        columns = self.columns
        if columns.accuracies is None:
            return {}
        return dict(zip(columns.cols.provenances, columns.accuracies.tolist()))

    def counts(self) -> tuple[int, int]:
        """``(predicted, unpredicted)`` triple counts."""
        columns = self.columns
        return len(columns.rows), int(np.count_nonzero(columns.unpredicted))

    def labelled_arrays(self, gold: dict[str, bool]) -> tuple[np.ndarray, np.ndarray]:
        """``(p, y)`` over the gold-labelled predictions, in emission order
        (:func:`repro.eval.calibration.labelled_arrays` of
        ``probabilities``), read from the posterior column and the claim
        columns' gold row column (:meth:`ColumnarClaims.gold_rows`)."""
        columns = self.columns
        label = columns.cols.gold_rows(gold)[columns.rows]
        labelled = label >= 0
        return columns.posteriors[labelled], label[labelled] == 1

    def coverage(self) -> float:
        """Fraction of triples that received a probability."""
        predicted, unpredicted = self.counts()
        total = predicted + unpredicted
        if total == 0:
            return 0.0
        return predicted / total


class Fuser(abc.ABC):
    """A fusion method: FusionInput -> FusionResult.  ``gold_labels``
    (POPACCU+'s initialisation) are keyed by canonical triple text."""

    def __init__(
        self,
        config: FusionConfig | None = None,
        gold_labels: dict[str, bool] | None = None,
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
