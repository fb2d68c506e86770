"""Experiment harness: definitions of E1–E10 and the runner/reporter."""

from .ablations import ABLATIONS, a1_substitution_rule, a2_misconfigured_fault_bound
from .experiments import (
    EXPERIMENTS,
    ExperimentDefinition,
    ExperimentResult,
    all_experiment_ids,
    run_experiment,
)

__all__ = [
    "ABLATIONS",
    "EXPERIMENTS",
    "ExperimentDefinition",
    "ExperimentResult",
    "a1_substitution_rule",
    "a2_misconfigured_fault_bound",
    "all_experiment_ids",
    "run_experiment",
    "run_many",
    "write_json_report",
    "write_markdown_report",
]


def __getattr__(name: str):
    # The runner is imported on first use, not with the package: running
    # it as ``python -m repro.harness.runner`` imports this package first,
    # and a runner already in ``sys.modules`` then draws a RuntimeWarning.
    if name in ("run_many", "write_json_report", "write_markdown_report"):
        from . import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
