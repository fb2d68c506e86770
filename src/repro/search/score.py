"""Scoring executed scenarios against the paper's correctness properties.

The checkers themselves live in :mod:`repro.analysis.properties`; this
module dispatches them per protocol over a
:class:`~repro.api.sweep.ScenarioOutcome` and turns failures into
:class:`PropertyViolation` records the search harness can rank, confirm
and persist.  Only *safety* properties are treated as violations — a run
that merely exhausts its round budget without deciding is slow, not
wrong, and shows up through the score's round-count term instead.  The
one round bound checked is total order's finality horizon (Theorem 6),
and only for specs with ``n > 3f``: an instance still undecided at its
horizon would let the chain wait where the paper promises finality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analysis.properties import (
    chains_are_prefixes,
    consensus_validity,
    reliable_broadcast_relay,
    rotor_good_round_exists,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..api.sweep import ScenarioOutcome

__all__ = [
    "OBJECTIVES",
    "PropertyViolation",
    "evaluate_outcome",
    "evaluation_row",
    "score_outcome",
    "score_row",
    "MESSAGE_WEIGHT",
    "VIOLATION_WEIGHT",
]

#: Score contribution of one confirmed property violation.  Far above any
#: achievable round count, so a violating scenario always outranks a
#: merely slow one.
VIOLATION_WEIGHT = 1_000.0

#: The scoring modes a search can rank candidates by.
#:
#: ``"violations"``
#:     Broken safety properties dominate, executed rounds break ties.
#: ``"rounds"``
#:     Worst-case round counts only.
#: ``"message_volume"``
#:     Traffic blowups: delivered message count dominates (every message
#:     pays a fixed envelope/handling cost, and the classic blowups —
#:     the rotor init wave, per-joiner membership acks — are count
#:     explosions), with total payload bytes and the peak single payload
#:     refining the ranking among equal-count candidates.  Candidates
#:     must run under ``payload_accounting`` for the byte columns to be
#:     non-zero — the search harness enables it on every evaluation.
OBJECTIVES = ("violations", "rounds", "message_volume")

#: Score weight of one delivered message under ``"message_volume"``.
#: One message outweighs a megabyte of payload spread across others, so
#: count explosions rank above byte-for-byte chatter; only a multi-GiB
#: payload blowup can outrank a count difference, and in that regime the
#: bytes *are* the story.
MESSAGE_WEIGHT = 1_000.0


@dataclass(frozen=True)
class PropertyViolation:
    """One broken invariant in one executed scenario."""

    property_name: str
    detail: str

    def as_dict(self) -> dict:
        return {"property": self.property_name, "detail": self.detail}


def _decided(outputs: dict) -> dict:
    return {node: value for node, value in outputs.items() if value is not None}


def _check_consensus(outcome: "ScenarioOutcome") -> list[PropertyViolation]:
    outputs = outcome.outputs()
    decided = _decided(outputs)
    violations: list[PropertyViolation] = []
    if len(set(decided.values())) > 1:
        violations.append(
            PropertyViolation(
                "consensus-agreement",
                f"correct nodes decided conflicting values: {sorted(set(decided.values()))!r}",
            )
        )
    inputs = outcome.system.params.get("inputs") or {}
    if inputs and not consensus_validity(outputs, inputs):
        violations.append(
            PropertyViolation(
                "consensus-validity",
                f"decisions {sorted(set(decided.values()))!r} are not valid for "
                f"inputs {sorted(set(inputs.values()))!r}",
            )
        )
    return violations


def _check_parallel_consensus(outcome: "ScenarioOutcome") -> list[PropertyViolation]:
    violations: list[PropertyViolation] = []
    per_instance: dict = {}
    for node, output in outcome.outputs().items():
        if not output:
            continue
        for instance, value in output.items():
            per_instance.setdefault(instance, {})[node] = value
    for instance, decisions in sorted(per_instance.items(), key=lambda kv: str(kv[0])):
        if len(set(decisions.values())) > 1:
            violations.append(
                PropertyViolation(
                    "parallel-consensus-agreement",
                    f"instance {instance!r} decided "
                    f"{sorted(set(decisions.values()))!r} across correct nodes",
                )
            )
    return violations


def _check_reliable_broadcast(outcome: "ScenarioOutcome") -> list[PropertyViolation]:
    processes = list(outcome.correct_processes().values())
    params = outcome.system.params
    violations: list[PropertyViolation] = []
    source = params.get("source")
    message = params.get("message")
    if source in set(outcome.system.correct_ids):
        accepted = [p.has_accepted(message, source) for p in processes]
        if not all(accepted):
            missing = sum(1 for a in accepted if not a)
            violations.append(
                PropertyViolation(
                    "rb-correctness",
                    f"{missing} correct node(s) never accepted the correct "
                    f"sender's message {message!r}",
                )
            )
    if not reliable_broadcast_relay(processes):
        violations.append(
            PropertyViolation(
                "rb-relay",
                "acceptances of the same (message, source) pair diverged across "
                "correct nodes by more than one round (or were not universal)",
            )
        )
    return violations


def _check_rotor(outcome: "ScenarioOutcome") -> list[PropertyViolation]:
    processes = list(outcome.correct_processes().values())
    if rotor_good_round_exists(processes, outcome.system.correct_ids):
        return []
    return [
        PropertyViolation(
            "rotor-good-round",
            "no selection index had every correct node agree on one correct "
            "coordinator (Theorem 2's good round never occurred)",
        )
    ]


def _check_approx(outcome: "ScenarioOutcome") -> list[PropertyViolation]:
    outputs = _decided(outcome.outputs())
    inputs = outcome.system.params.get("inputs") or {}
    if not outputs or not inputs:
        return []
    lo, hi = min(inputs.values()), max(inputs.values())
    out_of_range = {
        node: value for node, value in outputs.items() if not lo <= value <= hi
    }
    if not out_of_range:
        return []
    return [
        PropertyViolation(
            "approx-range",
            f"outputs {sorted(out_of_range.values())!r} left the correct "
            f"input range [{lo}, {hi}]",
        )
    ]


def _check_total_order(outcome: "ScenarioOutcome") -> list[PropertyViolation]:
    processes = outcome.correct_processes().values()
    violations: list[PropertyViolation] = []
    if not chains_are_prefixes([p.chain for p in processes]):
        violations.append(
            PropertyViolation(
                "total-order-prefix",
                "two correct nodes hold chains that are not prefixes of each other",
            )
        )
    spec = outcome.spec
    # Theorem 6's horizon holds only inside the paper's model; total order
    # always runs synchronously (the registry rejects other delay models),
    # so that leaves n > 3f.
    if spec.n > 3 * spec.f:
        overruns = sorted({r for p in processes for r in p.finality_overruns})
        if overruns:
            violations.append(
                PropertyViolation(
                    "total-order-finality",
                    f"instance(s) {overruns} were still undecided at a correct "
                    "node past the finality horizon 5·|S|/2 + 2 (Theorem 6)",
                )
            )
    return violations


_CHECKERS = {
    "consensus": _check_consensus,
    "known-f-consensus": _check_consensus,
    "parallel-consensus": _check_parallel_consensus,
    "reliable-broadcast": _check_reliable_broadcast,
    "srikanth-toueg-broadcast": _check_reliable_broadcast,
    "rotor-coordinator": _check_rotor,
    "approximate-agreement": _check_approx,
    "iterated-approximate-agreement": _check_approx,
    "dolev-approx": _check_approx,
    "total-order": _check_total_order,
}


def evaluate_outcome(outcome: "ScenarioOutcome") -> list[PropertyViolation]:
    """All safety-property violations observable in one executed scenario.

    Dispatches on the spec's protocol; protocols without a registered
    checker produce no violations (they can still be searched for
    worst-case round counts).
    """

    checker = _CHECKERS.get(outcome.spec.protocol)
    return checker(outcome) if checker else []


def evaluation_row(outcome: "ScenarioOutcome") -> dict:
    """The search's per-candidate measurement row.

    One row function serves every objective, so a candidate cached in the
    run store under this row is scorable against any objective without
    re-execution.  Picklable and JSON-normalisable by construction — it
    is the worker-side return value of the parallel search evaluator.
    The byte columns are only meaningful when the run executed under
    ``payload_accounting`` (the search harness always enables it).
    """

    summary = outcome.result.metrics.summary()
    return {
        "violations": [v.as_dict() for v in evaluate_outcome(outcome)],
        "rounds": outcome.rounds,
        "stop_reason": outcome.result.stop_reason,
        "messages": outcome.messages,
        "payload_bytes": int(summary.get("payload_bytes", 0)),
        "peak_payload_bytes": int(summary.get("peak_payload_bytes", 0)),
    }


def score_row(row: dict, *, objective: str = "violations") -> float:
    """Rank a candidate from its :func:`evaluation_row`; higher is better."""

    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; known: {', '.join(OBJECTIVES)}"
        )
    if objective == "rounds":
        return float(row["rounds"])
    if objective == "message_volume":
        return (
            MESSAGE_WEIGHT * float(row.get("messages", 0))
            + float(row.get("payload_bytes", 0)) / 2**20
            + float(row.get("peak_payload_bytes", 0)) / 2**30
        )
    return VIOLATION_WEIGHT * len(row["violations"]) + float(row["rounds"])


def score_outcome(
    outcome: "ScenarioOutcome",
    violations: list[PropertyViolation] | None = None,
    *,
    objective: str = "violations",
) -> float:
    """Rank a candidate: higher is closer to what the search wants.

    ``objective="violations"`` weights broken properties far above
    everything, with executed rounds as a tiebreaker (slower runs are
    closer to the synchrony boundary); ``objective="rounds"`` searches for
    worst-case round counts only; ``objective="message_volume"`` ranks by
    traffic — message count first, wire bytes as refinement (the outcome
    must have run under payload accounting for the byte terms).
    """

    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; known: {', '.join(OBJECTIVES)}"
        )
    if objective == "violations" and violations is not None:
        return VIOLATION_WEIGHT * len(violations) + float(outcome.rounds)
    return score_row(evaluation_row(outcome), objective=objective)
