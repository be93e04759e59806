"""Knowledge fusion: the paper's core contribution.

Given extraction records (triple + provenance), compute for every unique
triple a calibrated probability of being true.  Three fusers are provided —
:class:`~repro.fusion.vote.Vote`, :class:`~repro.fusion.accu.Accu` and
:class:`~repro.fusion.popaccu.PopAccu` — plus the paper's refinements
(provenance granularity, coverage/accuracy filtering, gold-standard
initialisation) and the ``POPACCU+`` presets that combine them.

The 3-D knowledge-fusion input is flattened to 2-D by treating a
*provenance* (``(Extractor, URL)`` by default) as a data-fusion source;
:class:`~repro.fusion.provenance.Granularity` selects the paper's
alternative flattenings.

Posterior math exists in two parity-tested forms over the columnar claim
index (:class:`~repro.fusion.observations.ColumnarClaims`), both scoring
a whole round at once through :mod:`repro.fusion.kernels`: a kernel's
(``VoteKernel``, ``AccuKernel``, ``PopAccuKernel``) ``exact_round``
keeps the per-item formulas' summation order and libm ``log`` / ``exp``,
its ``batch_round`` is a few ``reduceat`` passes.
``FusionConfig.backend`` selects exact serial, vectorized, or hybrid
(batched kernels inside each process-pool shard) execution.  ``serial``
honours the bitwise parity contract, ``vectorized``/``hybrid`` the 1e-9
tolerance one
(:data:`~repro.fusion.base.PARITY_TOLERANCE_ABS`); see
``docs/ARCHITECTURE.md`` for the full backend matrix.
"""

from repro.fusion.provenance import Granularity, provenance_key
from repro.fusion.observations import ColumnarClaims, ColumnarSlice, FusionInput
from repro.fusion.base import (
    BACKENDS,
    PARITY_BITWISE,
    PARITY_TOLERANCE,
    PARITY_TOLERANCE_ABS,
    Fuser,
    FusionConfig,
    FusionResult,
    parity_of,
    sampling_contract_of,
)
from repro.fusion.vote import Vote, VoteKernel
from repro.fusion.accu import Accu, AccuKernel
from repro.fusion.popaccu import PopAccu, PopAccuKernel
from repro.fusion.presets import (
    vote,
    accu,
    popaccu,
    popaccu_plus_unsup,
    popaccu_plus,
)

__all__ = [
    "Granularity",
    "provenance_key",
    "ColumnarClaims",
    "ColumnarSlice",
    "FusionInput",
    "BACKENDS",
    "PARITY_BITWISE",
    "PARITY_TOLERANCE",
    "PARITY_TOLERANCE_ABS",
    "parity_of",
    "sampling_contract_of",
    "Fuser",
    "FusionConfig",
    "FusionResult",
    "Vote",
    "Accu",
    "PopAccu",
    "VoteKernel",
    "AccuKernel",
    "PopAccuKernel",
    "vote",
    "accu",
    "popaccu",
    "popaccu_plus_unsup",
    "popaccu_plus",
]
