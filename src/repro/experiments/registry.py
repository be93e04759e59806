"""Experiment registry: the ordered ids, each the name of its module."""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

from repro.datasets.scenario import Scenario
from repro.errors import ExperimentError

__all__ = ["ExperimentResult", "run_experiment", "experiment_ids"]

#: Tables, then figures in order, then the four §5 directions.
_EXPERIMENT_IDS = (
    "table1", "table2", "table3",
    "fig3", "fig4", "fig5", "fig6", "fig7",
    "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
    "ext_split", "ext_funct", "ext_hier", "ext_conf",
)


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    ``checks`` maps each of the module's named ``CHECKS`` to whether its
    predicate held on ``data``; :func:`run_experiment` fills it.  The
    checks are calibrated at the ``small`` preset.
    """

    experiment_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)


def experiment_ids() -> tuple[str, ...]:
    """All registered experiment ids, in report order."""
    return _EXPERIMENT_IDS


def run_experiment(experiment_id: str, scenario: Scenario) -> ExperimentResult:
    """Run one experiment against ``scenario`` and evaluate every one of
    its checks; a failed check never stops the others."""
    if experiment_id not in _EXPERIMENT_IDS:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {list(_EXPERIMENT_IDS)}"
        )
    # Imported here: the modules import this one for ExperimentResult.
    module = importlib.import_module(f"repro.experiments.{experiment_id}")
    result = module.run(scenario)
    if not result.data:
        raise ExperimentError(f"experiment {experiment_id!r} returned no data")
    result.checks = {
        name: _holds(check, result.data) for name, check in module.CHECKS.items()
    }
    return result


def _holds(check, data: dict) -> bool:
    # A predicate that cannot evaluate on the data (an extractor with no
    # labelled triple at the tiny preset, say) has failed, like a false one.
    try:
        return bool(check(data))
    except (LookupError, TypeError, ValueError, ArithmeticError, StopIteration):
        return False
