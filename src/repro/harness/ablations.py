"""Ablations of design decisions called out in DESIGN.md §4.

These are not part of the paper's claims; they quantify why the
implementation makes the choices it makes:

* **A1 — substitution rule.**  Algorithm 3's missing-message substitution
  must be restricted to nodes that never speak inside the loop.  The
  "broad" variant (substitute for anyone who skipped the current round)
  looks like a harmless liveness aid but is unsound: under a split-vote
  adversary two correct nodes can be pushed over conflicting ``2·nv/3``
  quorums and decide different values.  The ablation measures the
  agreement rate of both variants under identical workloads.

* **A2 — assumed fault bound in the classic baselines.**  The known-(n, f)
  algorithms keep their guarantees only while the configured ``f`` is a
  true upper bound; the ablation sweeps the configured value below the real
  number of Byzantine nodes and measures how often the classic reliable
  broadcast accepts a forged message, something the id-only algorithm
  cannot be misconfigured into.
"""

from __future__ import annotations

from ..analysis.properties import (
    agreement,
    holds,
    rb_correctness,
    rb_unforgeability,
    termination,
)
from ..analysis.stats import aggregate_rows
from ..api import ScenarioOutcome, ScenarioSpec, run_scenario
from ..core.quorums import max_faults_tolerated
from ..sim.rng import derive
from .experiments import ExperimentResult, _every, _some

__all__ = [
    "a1_claim",
    "a1_substitution_rule",
    "a2_claim",
    "a2_misconfigured_fault_bound",
    "ABLATIONS",
]


def a1_substitution_rule(scale: int = 1, seed: int = 101) -> ExperimentResult:
    """A1: narrow (paper) vs broad (unsound) missing-message substitution."""

    rows: list[dict[str, object]] = []
    sizes = [10, 13] + ([16, 19] if scale > 1 else [])
    for n in sizes:
        f = max_faults_tolerated(n)
        for rule in ("narrow", "broad"):
            # Plain small integer seeds: the broad rule's failure depends on
            # how the adversary's per-destination split lines up with the
            # correct nodes' input split, and this seed range contains both
            # benign and violating alignments.
            for rep in range(8 * scale):
                outcome = run_scenario(
                    ScenarioSpec(
                        protocol="consensus",
                        n=n,
                        f=f,
                        adversary="consensus-split-vote",
                        seed=rep,
                        max_rounds=60,
                        params={"substitution": rule},
                    )
                )
                outputs = outcome.outputs()
                rows.append(
                    {
                        "n": n,
                        "f": f,
                        "substitution": rule,
                        "agreement": holds(termination(outputs), agreement(outputs)),
                    }
                )
    aggregated = aggregate_rows(rows, group_by=["substitution", "n"], metrics=["agreement"])
    return ExperimentResult(
        experiment_id="A1",
        title="Ablation: missing-message substitution rule",
        claim="The narrow rule preserves agreement; the broad rule is unsound under a split-vote adversary.",
        rows=aggregated,
        notes="broad substitution lets the local node vote on behalf of any silent peer, inflating conflicting quorums.",
        run_rows=rows,
    )


def a1_claim(rows: list[dict]) -> list[str]:
    """A1's claim over its per-run rows: the parts some run broke."""

    narrow = [row for row in rows if row["substitution"] == "narrow"]
    broad = [row for row in rows if row["substitution"] == "broad"]
    return _every(narrow, "agreement", where=" (narrow)") + _some(
        broad, "agreement (broad)", lambda row: not row["agreement"]
    )


def a2_misconfigured_fault_bound(scale: int = 1, seed: int = 103) -> ExperimentResult:
    """A2: what the classic known-f reliable broadcast does when f is wrong."""

    rows: list[dict[str, object]] = []
    n, real_f = 10, 3
    for assumed_f in range(0, real_f + 2):
        for rep in range(3 * scale):
            run_seed = derive(seed, assumed_f, rep)
            classic = run_scenario(
                ScenarioSpec(
                    protocol="srikanth-toueg-broadcast",
                    n=n,
                    f=real_f,
                    adversary="rb-false-echo",
                    seed=run_seed,
                    max_rounds=10,
                    stop="never",
                    params={"assumed_f": assumed_f},
                )
            )
            classic_forged, classic_delivered = _broadcast_checks(classic)
            # The id-only algorithm on the identical workload, for contrast.
            id_only = run_scenario(
                ScenarioSpec(
                    protocol="reliable-broadcast",
                    n=n,
                    f=real_f,
                    adversary="rb-false-echo",
                    seed=run_seed,
                    max_rounds=10,
                    stop="never",
                )
            )
            rows.append(
                {
                    "assumed_f": assumed_f,
                    "real_f": real_f,
                    "classic_accepts_forgery": classic_forged,
                    "classic_delivers": classic_delivered,
                    "id_only_accepts_forgery": _broadcast_checks(id_only)[0],
                }
            )
    aggregated = aggregate_rows(
        rows,
        group_by=["assumed_f", "real_f"],
        metrics=["classic_accepts_forgery", "classic_delivers", "id_only_accepts_forgery"],
    )
    return ExperimentResult(
        experiment_id="A2",
        title="Ablation: misconfigured fault bound in the classic baseline",
        claim="The classic algorithm's unforgeability depends on the configured f; the id-only algorithm has no such knob.",
        rows=aggregated,
        run_rows=rows,
    )


def _broadcast_checks(outcome: ScenarioOutcome) -> tuple[bool, bool]:
    """Whether a correct node accepted a forgery, and whether every correct
    node delivered the sender's message."""

    params = outcome.system.params
    accepted = (outcome.correct_processes(), params["message"], params["source"])
    forged = rb_unforgeability(*accepted, outcome.system.byzantine_ids)
    return not holds(forged), holds(rb_correctness(*accepted))


def a2_claim(rows: list[dict]) -> list[str]:
    """A2's claim over its per-run rows: the parts some run broke."""

    return _every(
        rows,
        classic_unforgeable_at_true_f=lambda row: (
            row["assumed_f"] < row["real_f"] or not row["classic_accepts_forgery"]
        ),
        id_only_unforgeable=lambda row: not row["id_only_accepts_forgery"],
    ) + _some(
        [row for row in rows if row["assumed_f"] == 0],
        "classic_accepts_forgery (assumed_f = 0)",
        lambda row: row["classic_accepts_forgery"],
    )


ABLATIONS = {
    "A1": a1_substitution_rule,
    "A2": a2_misconfigured_fault_bound,
}
