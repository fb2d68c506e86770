"""Scoring executed scenarios against the paper's correctness properties.

:func:`evaluate_outcome` is a per-protocol table of the functions in
:mod:`repro.analysis.properties`, each fed from a
:class:`~repro.api.sweep.ScenarioOutcome`; the search ranks, confirms and
persists the :class:`PropertyViolation` records they return.  The table
holds *safety* properties only: a run that exhausts its round budget
undecided is slow, not wrong, and shows up in the score's round term.  Its
one round bound is total order's finality horizon (Theorem 6), which
applies to specs with ``n > 3f``.  Unforgeability, parallel-consensus
validity and range reduction are checked by the experiments only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..analysis.properties import (
    PropertyViolation,
    agreement,
    chain_prefix,
    finality,
    parallel_agreement,
    range_containment,
    rb_correctness,
    rb_relay,
    rotor_good_round,
    validity,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..api.sweep import ScenarioOutcome

__all__ = [
    "OBJECTIVES",
    "PropertyViolation",
    "SAFETY_PROPERTIES",
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


def _consensus(o: "ScenarioOutcome") -> list[PropertyViolation]:
    outputs = o.outputs()
    return agreement(outputs) + validity(outputs, o.system.params["inputs"])


def _broadcast(o: "ScenarioOutcome") -> list[PropertyViolation]:
    processes, params = o.correct_processes(), o.system.params
    correctness = rb_correctness(processes, params["message"], params["source"])
    return correctness + rb_relay(processes)


def _approximate(o: "ScenarioOutcome") -> list[PropertyViolation]:
    return range_containment(o.outputs(), o.system.params["inputs"])


#: Per protocol, the safety properties the search checks, each read from
#: the outcome.  A protocol missing here would be searched unchecked, so
#: every registered protocol has an entry (``tests/test_search.py``).
SAFETY_PROPERTIES: dict[str, Callable[..., list[PropertyViolation]]] = {
    "consensus": _consensus,
    "known-f-consensus": _consensus,
    "parallel-consensus": lambda o: parallel_agreement(o.outputs()),
    "reliable-broadcast": _broadcast,
    "srikanth-toueg-broadcast": _broadcast,
    "rotor-coordinator": lambda o: rotor_good_round(o.correct_processes()),
    "approximate-agreement": _approximate,
    "iterated-approximate-agreement": _approximate,
    "dolev-approx": _approximate,
    "total-order": lambda o: (
        chain_prefix([p.chain for p in o.correct_processes().values()])
        + finality(o.correct_processes(), o.spec.n, o.spec.f)
    ),
}


def evaluate_outcome(outcome: "ScenarioOutcome") -> list[PropertyViolation]:
    """All safety-property violations observable in one executed scenario.

    Dispatches on the spec's protocol through :data:`SAFETY_PROPERTIES`;
    a protocol without an entry produces no violations (it can still be
    searched for worst-case round counts).
    """

    check = SAFETY_PROPERTIES.get(outcome.spec.protocol)
    return check(outcome) if check else []


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
