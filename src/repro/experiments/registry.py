"""Experiment registry: id → runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.datasets.scenario import Scenario
from repro.errors import ExperimentError

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment", "experiment_ids"]


@dataclass
class ExperimentResult:
    """Output of one experiment run."""

    experiment_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)


def _load_runners() -> dict[str, Callable[[Scenario], ExperimentResult]]:
    # Imported lazily to avoid a costly import cycle at package import.
    from repro.experiments import (
        table1,
        table2,
        table3,
        fig3,
        fig4,
        fig5,
        fig6,
        fig7,
        fig9,
        fig10,
        fig11,
        fig12,
        fig13,
        fig14,
        fig15,
        fig16,
        fig17,
        fig18,
        fig19,
        fig20,
        fig21,
        fig22,
    )

    modules = (
        table1,
        table2,
        table3,
        fig3,
        fig4,
        fig5,
        fig6,
        fig7,
        fig9,
        fig10,
        fig11,
        fig12,
        fig13,
        fig14,
        fig15,
        fig16,
        fig17,
        fig18,
        fig19,
        fig20,
        fig21,
        fig22,
    )
    return {module.EXPERIMENT_ID: module.run for module in modules}


_RUNNERS: dict[str, Callable[[Scenario], ExperimentResult]] | None = None


def _runners() -> dict[str, Callable[[Scenario], ExperimentResult]]:
    global _RUNNERS
    if _RUNNERS is None:
        _RUNNERS = _load_runners()
    return _RUNNERS


class _Registry:
    """``EXPERIMENTS[id]``: the runner of one experiment, loaded lazily."""

    def __getitem__(self, experiment_id: str):
        try:
            return _runners()[experiment_id]
        except KeyError:
            raise ExperimentError(
                f"unknown experiment {experiment_id!r}; "
                f"available: {sorted(_runners())}"
            ) from None


EXPERIMENTS = _Registry()


def experiment_ids() -> list[str]:
    """All registered experiment ids, tables first then figures in order."""

    def sort_key(experiment_id: str) -> tuple[int, int]:
        if experiment_id.startswith("table"):
            return (0, int(experiment_id.removeprefix("table")))
        return (1, int(experiment_id.removeprefix("fig")))

    return sorted(_runners(), key=sort_key)


def run_experiment(experiment_id: str, scenario: Scenario) -> ExperimentResult:
    """Run one experiment against ``scenario``."""
    return EXPERIMENTS[experiment_id](scenario)
