"""Byzantine process machinery.

A Byzantine node in the simulator is a :class:`ByzantineProcess` — an
ordinary :class:`~repro.sim.node.Process` whose behaviour is supplied by an
:class:`AdversaryStrategy`.  The strategy receives an
:class:`AdversaryContext` each round containing:

* its own inbox (Byzantine nodes receive messages like everyone else);
* the accumulated set of node identifiers it has heard from;
* optionally, an omniscient :class:`~repro.sim.network.SystemView` with the
  full membership and read access to the correct processes' public state
  (strongest possible adversary, as the paper's proofs assume);
* its own random generator and a persistent ``memory`` dict for
  stateful strategies.

Each Byzantine node keeps one context for its whole life and refreshes it
before every round; the generator is seeded from the node's seed the first
time a strategy reads ``ctx.rng``, so strategies that never draw (every
registered one but ``random-noise``) cost no generator.

Strategies return a list of :class:`~repro.sim.messages.Broadcast` /
:class:`~repro.sim.messages.Unicast` actions, so equivocation (sending
different payloads to different destinations) is expressed directly with
unicasts.  The one thing a strategy can *not* do is forge the sender field —
the network stamps the true identifier on every envelope, exactly as the
model prescribes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..sim.messages import Broadcast, NodeId, Outgoing, Payload, Unicast, intern_payload
from ..sim.network import SystemView
from ..sim.node import Process, RoundView
from ..sim.rng import make_rng

__all__ = ["AdversaryContext", "AdversaryStrategy", "ByzantineProcess", "send_split"]


@dataclass(eq=False)
class AdversaryContext:
    """Everything an adversary strategy may look at in one round.

    ``view``, ``known_ids`` and ``system`` describe the current round
    (``view`` is ``None`` outside :meth:`AdversaryStrategy.act`); ``seed``
    and ``memory`` belong to the node and persist across rounds.
    """

    node_id: NodeId
    view: RoundView | None = None
    known_ids: frozenset[NodeId] = frozenset()
    system: SystemView | None = None
    seed: int = 0
    memory: dict[str, Any] = field(default_factory=dict)
    _rng: np.random.Generator | None = field(default=None, init=False, repr=False)

    @property
    def rng(self) -> np.random.Generator:
        """The node's own generator, made from ``seed`` on first use."""

        rng = self._rng
        if rng is None:
            rng = self._rng = make_rng(self.seed)
        return rng

    @property
    def round_index(self) -> int:
        return self.view.round_index

    @property
    def correct_ids(self) -> frozenset[NodeId]:
        """Correct node identifiers, if the omniscient view is available."""

        if self.system is None:
            return frozenset()
        return self.system.correct_ids

    def targets(self) -> list[NodeId]:
        """A deterministic list of nodes worth sending to.

        Prefers the omniscient membership when available, otherwise falls
        back to the identifiers this node has heard from (which is all a
        non-omniscient Byzantine node could know).
        """

        if self.system is not None:
            return sorted(self.system.active_ids)
        return sorted(self.known_ids | {self.node_id})


class AdversaryStrategy(abc.ABC):
    """A pluggable Byzantine behaviour."""

    #: Human-readable name used by the registry and by experiment reports.
    name: str = "abstract"

    @abc.abstractmethod
    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        """Produce this node's messages for the current round."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class ByzantineProcess(Process):
    """A network participant controlled by an adversary strategy."""

    def __init__(
        self,
        node_id: NodeId,
        strategy: AdversaryStrategy,
        *,
        seed: int = 0,
    ) -> None:
        super().__init__(node_id)
        self._strategy = strategy
        self._ctx = AdversaryContext(node_id, seed=seed)

    @property
    def is_byzantine(self) -> bool:
        return True

    @property
    def strategy(self) -> AdversaryStrategy:
        return self._strategy

    def observe_system(self, system: SystemView) -> None:
        """Called by the network before each round (omniscient adversary)."""

        self._ctx.system = system

    def step(self, view: RoundView) -> Sequence[Outgoing]:
        ctx = self._ctx
        # Same shared-union memoization as KnownSenders.observe: every
        # Byzantine node with the same prior membership reuses one union
        # per shared inbox instead of copying an O(n) frozenset a round.
        known = ctx.known_ids
        ctx.known_ids = view.inbox.memo(
            ("byz-known", known),
            lambda ib: intern_payload(known | ib.senders),
        )
        ctx.view = view
        try:
            return list(self._strategy.act(ctx))
        finally:
            # Let the round's inbox, and everything memoized on it, go
            # with the round instead of living until this node's next step.
            ctx.view = None


def send_split(
    targets: Sequence[NodeId],
    payload_a: Payload,
    payload_b: Payload,
) -> list[Outgoing]:
    """Send ``payload_a`` to the first half of ``targets`` and ``payload_b``
    to the second half — the canonical equivocation pattern.
    """

    actions: list[Outgoing] = []
    half = len(targets) // 2
    for index, dest in enumerate(targets):
        payload = payload_a if index < half else payload_b
        actions.append(Unicast(dest, payload))
    return actions
