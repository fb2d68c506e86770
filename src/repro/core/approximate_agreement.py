"""Algorithm 4 — Approximate agreement in the id-only model (Section VIII).

Each correct node starts with a real-valued input and must output a value

1. inside the range of correct inputs, and
2. such that the range of correct outputs is strictly smaller than the
   range of correct inputs (the proof of Theorem 4 shows it at least
   halves).

The id-only algorithm is a single exchange: broadcast the input, collect
the received values ``R_v``, discard the ``⌊nv/3⌋`` smallest and largest,
and output the midpoint of what remains.  Because every correct node
broadcasts, ``⌊nv/3⌋`` is guaranteed to be at least the number of Byzantine
values received (Lemma 12), so the trimming removes every possible lie.

Two processes are provided:

* :class:`ApproximateAgreementProcess` — the single-shot Algorithm 4.
* :class:`IteratedApproximateAgreementProcess` — runs the exchange for a
  configurable number of iterations, each time feeding the previous output
  back in as the next input.  Section XI uses exactly this iterated form in
  dynamic networks ("the range of correct values still gets halved in every
  round"), and experiment E4 measures the convergence rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..sim.messages import Broadcast, Inbox, NodeId, Outgoing
from ..sim.node import Process, RoundView

__all__ = [
    "ValueMessage",
    "trim_and_midpoint",
    "ApproximateAgreementProcess",
    "IteratedApproximateAgreementProcess",
]


@dataclass(frozen=True)
class ValueMessage:
    """The broadcast carrying a node's current real-valued estimate."""

    value: float
    iteration: int = 0


def trim_and_midpoint(values: Sequence[float]) -> float:
    """Algorithm 4, lines 3–4: trim ``⌊nv/3⌋`` from both ends, take the midpoint.

    ``values`` is the multiset ``R_v`` of received values (one per sender).
    Raises :class:`ValueError` on an empty collection — a node that heard
    from nobody has no basis for an estimate.
    """

    if not values:
        raise ValueError("cannot aggregate an empty set of received values")
    ordered = sorted(float(v) for v in values)
    nv = len(ordered)
    discard = nv // 3
    trimmed = ordered[discard : nv - discard] if nv - 2 * discard > 0 else []
    if not trimmed:
        # Defensive: only reachable when nv < 3 and discard removes
        # everything, which cannot happen for ⌊nv/3⌋ < nv/2; keep the
        # median as a safe fallback.
        trimmed = [ordered[nv // 2]]
    return (trimmed[0] + trimmed[-1]) / 2.0


def _first_value_per_sender(
    inbox: Inbox, iteration: int | None = None
) -> tuple[float, ...]:
    """Extract one value per sender (the model delivers at most one honest
    value per sender per round; equivocating Byzantine senders contribute a
    single deterministic representative).

    The extraction — and with it the O(n log n) sender sort — is memoized
    on the (shared) inbox per iteration tag, so in a synchronous run
    every node reads the same tuple instead of rescanning.
    """

    def build(ib: Inbox) -> tuple[float, ...]:
        values: list[float] = []
        for sender in sorted(ib.senders):
            for payload in ib.payloads_from(sender):
                if isinstance(payload, ValueMessage) and (
                    iteration is None or payload.iteration == iteration
                ):
                    values.append(float(payload.value))
                    break
        return tuple(values)

    return inbox.memo(("approx-values", iteration), build)


def _shared_midpoint(inbox: Inbox, iteration: int | None = None) -> float | None:
    """The trimmed midpoint of the round's values, memoized on the inbox.

    Every receiver of a shared broadcast inbox computes the identical
    aggregate, so the sort inside :func:`trim_and_midpoint` runs once per
    round instead of once per node.  ``None`` when no values arrived.
    """

    values = _first_value_per_sender(inbox, iteration)
    if not values:
        return None
    return inbox.memo(
        ("approx-midpoint", iteration), lambda ib: trim_and_midpoint(values)
    )


class ApproximateAgreementProcess(Process):
    """Single-shot Algorithm 4: one broadcast, one aggregation, done."""

    def __init__(self, node_id: NodeId, *, input_value: float) -> None:
        super().__init__(node_id)
        self._input = float(input_value)
        self._output: float | None = None
        self._received: tuple[float, ...] = ()

    @property
    def input_value(self) -> float:
        return self._input

    @property
    def output(self) -> float | None:
        return self._output

    @property
    def received_values(self) -> tuple[float, ...]:
        """The multiset ``R_v`` observed in the aggregation round."""

        return tuple(self._received)

    def step(self, view: RoundView) -> Sequence[Outgoing]:
        if view.round_index == 1:
            return [Broadcast(ValueMessage(self._input))]
        if self._output is None:
            self._received = _first_value_per_sender(view.inbox)
            self._output = _shared_midpoint(view.inbox)
            self.halt()
        return ()


class IteratedApproximateAgreementProcess(Process):
    """Algorithm 4 applied repeatedly, halving the correct range each time."""

    def __init__(
        self,
        node_id: NodeId,
        *,
        input_value: float,
        iterations: int = 5,
    ) -> None:
        super().__init__(node_id)
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
        self._estimate = float(input_value)
        self._input = float(input_value)
        self._iterations = iterations
        self._completed = 0
        self._history: list[float] = [float(input_value)]
        self._output: float | None = None

    @property
    def input_value(self) -> float:
        return self._input

    @property
    def estimate(self) -> float:
        """The node's current estimate (updated after every iteration)."""

        return self._estimate

    @property
    def history(self) -> tuple[float, ...]:
        """Estimates after each completed iteration, starting with the input."""

        return tuple(self._history)

    @property
    def iterations_completed(self) -> int:
        return self._completed

    @property
    def output(self) -> float | None:
        return self._output

    def step(self, view: RoundView) -> Sequence[Outgoing]:
        # Round r delivers the values broadcast in round r-1 (iteration
        # r-2, 0-based).  Aggregate them, then broadcast the next iteration's
        # value — each iteration therefore occupies exactly one round, as in
        # the dynamic-network usage of Section XI.
        if view.round_index > 1:
            midpoint = _shared_midpoint(view.inbox, iteration=self._completed)
            if midpoint is not None:
                self._estimate = midpoint
            self._completed += 1
            self._history.append(self._estimate)
            if self._completed >= self._iterations:
                self._output = self._estimate
                self.halt()
                return ()
        return [Broadcast(ValueMessage(self._estimate, iteration=self._completed))]
