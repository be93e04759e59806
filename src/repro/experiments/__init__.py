"""One experiment per table and figure of the paper, plus its §5 directions.

Every experiment is a module ``repro.experiments.<id>`` with a function
``run(scenario) -> ExperimentResult`` — a rendered text report (the same
rows/series the paper prints) and a structured ``data`` dict — and a
``CHECKS`` dict of named predicates over that ``data``.  The registry
lists the ids in report order; ``repro-kf run`` goes through it.
"""

from repro.experiments.registry import (
    ExperimentResult,
    experiment_ids,
    run_experiment,
)

__all__ = ["ExperimentResult", "experiment_ids", "run_experiment"]
