"""The paper's correctness properties, each decided in one place.

One function per property, over plain run data: the correct nodes'
outputs and inputs (``{node: value}``, ``None`` while undecided), their
processes (``{node: process}``) or their chains.  Each returns the
:class:`PropertyViolation` records it finds, ``[]`` when the property
held.  Experiment rows and claims, the ablations, ``summary_row``, the
search (:func:`repro.search.score.evaluate_outcome`), the tests and the
examples all call these.  Safety checks ignore undecided nodes and
:func:`termination` is its own property, so "every correct node decided
the same value" is ``holds(termination(outputs), agreement(outputs))``;
outputs compare by equality, so dict outputs (parallel consensus) work.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Mapping, Sequence

from ..sim.messages import NodeId

__all__ = [
    "PropertyViolation",
    "holds",
    "termination",
    "agreement",
    "validity",
    "parallel_agreement",
    "parallel_validity",
    "rb_correctness",
    "rb_relay",
    "rb_unforgeability",
    "rotor_good_round",
    "range_containment",
    "range_reduction",
    "chain_prefix",
    "finality",
]

Values = Mapping[NodeId, Any]


@dataclass(frozen=True)
class PropertyViolation:
    """One broken invariant in one executed scenario."""

    property_name: str
    detail: str

    def as_dict(self) -> dict:
        return {"property": self.property_name, "detail": self.detail}


def holds(*checks: list[PropertyViolation]) -> bool:
    """True when none of the property results ``checks`` holds a violation."""

    return not any(checks)


def _broken(name: str, detail: str) -> list[PropertyViolation]:
    return [PropertyViolation(name, detail)]


def _distinct(values: Iterable[Any]) -> list:
    """The distinct values by equality, sorted when they have an order
    (parallel consensus's dict outputs have neither order nor hash)."""

    values = list(values)
    try:
        distinct = list(dict.fromkeys(values))
    except TypeError:
        distinct = []
        for value in values:
            if value not in distinct:
                distinct.append(value)
    with suppress(TypeError):
        distinct.sort()
    return distinct


def _decided(outputs: Values) -> list:
    return [value for value in outputs.values() if value is not None]


def termination(outputs: Values) -> list[PropertyViolation]:
    """Termination: there is a correct node, and every correct node decided."""

    undecided = len(outputs) - len(_decided(outputs))
    if outputs and not undecided:
        return []
    detail = f"{undecided} of {len(outputs)} correct node(s) never decided"
    return _broken("termination", detail if outputs else "there is no correct node")


def agreement(outputs: Values) -> list[PropertyViolation]:
    """Agreement (Theorem 3): no two correct nodes decided different values."""

    distinct = _distinct(_decided(outputs))
    if len(distinct) <= 1:
        return []
    return _broken(
        "consensus-agreement",
        f"correct nodes decided conflicting values: {distinct!r}",
    )


def validity(outputs: Values, inputs: Values) -> list[PropertyViolation]:
    """Validity (Theorem 3): every decided value is a correct node's input."""

    decided, input_values = _decided(outputs), _distinct(inputs.values())
    if all(value in input_values for value in decided):
        return []
    return _broken(
        "consensus-validity",
        f"decisions {_distinct(decided)!r} are not valid for inputs {input_values!r}",
    )


def parallel_agreement(outputs: Values) -> list[PropertyViolation]:
    """:func:`agreement` per instance of parallel consensus (Theorem 5), so a
    violation names its instance; each output is ``{instance: value}``."""

    per_instance: dict = {}
    for node, output in outputs.items():
        for instance, value in (output or {}).items():
            per_instance.setdefault(instance, {})[node] = value
    return [
        PropertyViolation(
            "parallel-consensus-agreement",
            f"instance {instance!r} decided "
            f"{_distinct(decisions.values())!r} across correct nodes",
        )
        for instance, decisions in sorted(per_instance.items(), key=lambda i: str(i[0]))
        if agreement(decisions)
    ]


def parallel_validity(outputs: Values, pairs: Mapping) -> list[PropertyViolation]:
    """Validity of parallel consensus (Theorem 5): every decided output holds
    each input pair that all correct nodes share (``pairs``)."""

    changed = _distinct(
        key for out in _decided(outputs) for key, value in pairs.items()
        if out.get(key) != value
    )
    if not changed:
        return []
    return _broken("parallel-consensus-validity", f"outputs drop or change {changed!r}")


def rb_correctness(
    processes: Values, message: Hashable, source: NodeId
) -> list[PropertyViolation]:
    """Correctness (Theorem 1): when the sender is correct (a key of
    ``processes``), every correct node accepts its message."""

    missing = sum(1 for p in processes.values() if not p.has_accepted(message, source))
    if source not in processes or not missing:
        return []
    return _broken(
        "rb-correctness",
        f"{missing} correct node(s) never accepted the correct "
        f"sender's message {message!r}",
    )


def rb_relay(processes: Values) -> list[PropertyViolation]:
    """Relay (Theorem 1): a pair ``(m, s)`` accepted by a correct node is
    accepted by every correct node, at most one round apart."""

    rounds: dict[tuple, list[int]] = {}
    for process in processes.values():
        for rec in process.accepted:
            rounds.setdefault((rec.message, rec.source), []).append(rec.round_index)
    if all(len(r) == len(processes) and max(r) - min(r) <= 1 for r in rounds.values()):
        return []
    return _broken(
        "rb-relay",
        "acceptances of the same (message, source) pair diverged across "
        "correct nodes by more than one round (or were not universal)",
    )


def rb_unforgeability(
    processes: Values, message: Hashable, source: NodeId, byzantine_ids: Iterable
) -> list[PropertyViolation]:
    """Unforgeability (Theorem 1): no correct node accepts a pair its sender
    never broadcast.  Only ``source`` broadcasts (``message``) and Byzantine
    nodes may broadcast anything, so any other accepted pair is forged."""

    byzantine = set(byzantine_ids)
    forged = _distinct(
        (r.message, r.source)
        for p in processes.values()
        for r in p.accepted
        if r.source not in byzantine and (r.message, r.source) != (message, source)
    )
    if not forged:
        return []
    return _broken("rb-unforgeability", f"correct nodes accepted forgeries {forged!r}")


def rotor_good_round(processes: Values) -> list[PropertyViolation]:
    """Theorem 2's good round: at some selection index every correct node
    picked the same coordinator, and it is correct (a key of ``processes``)."""

    histories = [p.selection_history for p in processes.values()]
    if histories and all(histories):
        for index in range(min(len(h) for h in histories)):
            coordinators = {h[index].coordinator for h in histories}
            if len(coordinators) == 1 and next(iter(coordinators)) in processes:
                return []
    return _broken(
        "rotor-good-round",
        "no selection index had every correct node agree on one correct "
        "coordinator (Theorem 2's good round never occurred)",
    )


def range_containment(outputs: Values, inputs: Values) -> list[PropertyViolation]:
    """Approximate agreement's first property (Theorem 4): every decided
    output lies in the range of the correct inputs."""

    lo, hi = min(inputs.values()), max(inputs.values())
    out_of_range = [value for value in _decided(outputs) if not lo <= value <= hi]
    if not out_of_range:
        return []
    return _broken(
        "approx-range",
        f"outputs {sorted(out_of_range)!r} left the correct input range [{lo}, {hi}]",
    )


def range_reduction(outputs: Values, inputs: Values) -> list[PropertyViolation]:
    """Its second property: the decided outputs' range is below the correct
    inputs' range (zero when that is zero)."""

    decided = _decided(outputs)
    in_range = max(inputs.values()) - min(inputs.values())
    out_range = max(decided) - min(decided) if decided else 0
    if out_range < in_range or out_range == in_range == 0:
        return []
    return _broken(
        "approx-contraction", f"output range {out_range} is not below {in_range}"
    )


def chain_prefix(chains: Sequence[Sequence[Hashable]]) -> list[PropertyViolation]:
    """Chain-prefix (Theorem 6): any two correct chains are prefixes of each other."""

    ordered = sorted(chains, key=len)
    if all(list(b[: len(a)]) == list(a) for a, b in zip(ordered, ordered[1:])):
        return []
    return _broken(
        "total-order-prefix",
        "two correct nodes hold chains that are not prefixes of each other",
    )


def finality(processes: Values, n: int, f: int) -> list[PropertyViolation]:
    """Finality (Theorem 6): every instance decides at every correct node
    before its horizon 5·|S|/2 + 2.  The theorem holds inside the paper's
    model only; total order always runs synchronously (the registry rejects
    other delay models), which leaves ``n > 3f`` to check."""

    overruns = sorted({r for p in processes.values() for r in p.finality_overruns})
    if n <= 3 * f or not overruns:
        return []
    return _broken(
        "total-order-finality",
        f"instance(s) {overruns} were still undecided at a correct "
        "node past the finality horizon 5·|S|/2 + 2 (Theorem 6)",
    )
