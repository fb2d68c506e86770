"""repro — Byzantine agreement with unknown participants and failures.

A reproduction of Khanchandani & Wattenhofer, *Byzantine Agreement with
Unknown Participants and Failures* (IPDPS 2021, arXiv:2102.10442): the
id-only agreement algorithms (reliable broadcast, rotor-coordinator,
consensus, approximate agreement, parallel consensus, dynamic total
ordering), the synchronous round-based simulator they run on, Byzantine
adversary strategies, classic known-(n, f) baselines, and the experiment
harness that regenerates the evaluation described in ``DESIGN.md``.

Quick start — the declarative :mod:`repro.api` layer is the front door::

    from repro.api import ScenarioSpec, run_scenario

    outcome = run_scenario(
        ScenarioSpec(protocol="consensus", n=10, f=3,
                     adversary="consensus-split-vote", seed=1)
    )
    print(outcome.result.decided_outputs())

Sweeps over cartesian grids run through the same layer, in parallel::

    from repro.api import SweepSpec, run_sweep

    rows = run_sweep(
        SweepSpec(protocol="consensus",
                  grid={"n": (4, 7, 10, 13),
                        "adversary": ("silent", "consensus-split-vote")},
                  repetitions=5),
        jobs=4,                       # bit-identical to jobs=1
        group_by=("n", "adversary"),
        metrics=("agreement", "rounds", "messages"),
    )

:func:`repro.api.available_protocols` lists every registered protocol name.
"""

from . import adversary, analysis, api, baselines, core, dynamic, harness, sim, workloads
from .api import (
    REGISTRY,
    ScenarioOutcome,
    ScenarioSpec,
    SweepRunner,
    SweepSpec,
    available_protocols,
    build_system,
    run_scenario,
    run_sweep,
)
from .core import (
    ApproximateAgreementProcess,
    ConsensusProcess,
    IteratedApproximateAgreementProcess,
    ParallelConsensusProcess,
    ReliableBroadcastProcess,
    RotorCoordinatorProcess,
    TotalOrderProcess,
)
from .harness import run_experiment
from .sim import SynchronousNetwork

__version__ = "1.1.0"


def __getattr__(name: str):
    # Resolved on first use, so importing the package leaves the runner
    # module unimported (see ``repro.harness.__getattr__``).
    if name == "run_many":
        return harness.run_many
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ApproximateAgreementProcess",
    "ConsensusProcess",
    "IteratedApproximateAgreementProcess",
    "ParallelConsensusProcess",
    "REGISTRY",
    "ReliableBroadcastProcess",
    "RotorCoordinatorProcess",
    "ScenarioOutcome",
    "ScenarioSpec",
    "SweepRunner",
    "SweepSpec",
    "SynchronousNetwork",
    "TotalOrderProcess",
    "__version__",
    "adversary",
    "analysis",
    "api",
    "available_protocols",
    "baselines",
    "build_system",
    "core",
    "dynamic",
    "harness",
    "run_experiment",
    "run_many",
    "run_scenario",
    "run_sweep",
    "sim",
    "workloads",
]
