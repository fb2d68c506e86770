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

Colluding nodes step once
-------------------------
The ``f`` attackers of a scenario usually run one strategy and tell the
same lies to the same nodes, so in a synchronous round the attackers that
read one inbox object would compute the same actions.  A strategy class
that sets :attr:`AdversaryStrategy.shared_act` declares that its ``act``
reads nothing node-specific, and is a frozen dataclass, which hashes and
compares by class and field values.  :meth:`ByzantineProcess.step` then
applies :func:`_shared_step` on the inbox
(:meth:`~repro.sim.messages.Inbox.apply`) with the strategy, the round
index, the node's interned known senders and the round's active and
Byzantine ids.  Those arguments are the key, and ``act`` gets a context
built from them alone (:class:`SharedContext`): the view, the known
senders, ``targets()`` and ``correct_ids``.  A strategy that reads
``node_id``, ``rng``, ``memory`` or ``seed`` therefore fails on its first
call.  Nodes with equal arguments reading one inbox share one ``act``
call, its payload objects and the actions tuple itself, which ``step``
returns: the network stages that tuple once for all of them.  The cached
result holds actions, never an inbox, and dies with the round.

Ten registered strategies declare it: ``crash``, ``replay``,
``equivocate-value``, ``rb-false-echo``, ``rb-forged-source``,
``rotor-candidate-stuffer``, ``rotor-usurper``, ``consensus-split-vote``,
``consensus-strongprefer-spoofer`` and ``approx-outlier``.  The other
registered strategies step privately: ``silent`` sends nothing, so a
shared step would cost more than its ``act``; ``random-noise`` draws from
the node's generator; ``coordinated-equivocation`` keeps its activation
round in the node's memory; ``rb-equivocating-sender`` and
``rotor-split-echo`` put their own id in their payloads.  So do
``mimic-correct``, which runs an inner process, and ``delayed``, which
wraps any strategy.  A declared strategy also steps privately when the
node has no system view (``targets()`` then reads its own id) or a field
value is unhashable, which is decided once, when the node is built; and
in effect in every delayed round, whose inboxes are one per recipient.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, ClassVar, Sequence

import numpy as np

from ..sim.messages import Inbox, NodeId, Outgoing, Payload, Unicast
from ..sim.network import SystemView
from ..sim.node import Process, RoundView, with_senders
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


class SharedContext:
    """What a :attr:`~AdversaryStrategy.shared_act` strategy's ``act`` may
    read: the round's view, the node's known senders, ``targets()`` and
    ``correct_ids``, all built from the arguments of :func:`_shared_step`.

    It has no ``node_id``, ``rng``, ``memory``, ``seed`` or ``system``, so
    a shared strategy that reads one fails on its first call.
    """

    __slots__ = ("view", "known_ids", "_active", "_byzantine")

    def __init__(
        self,
        view: RoundView,
        known_ids: frozenset[NodeId],
        active: frozenset[NodeId],
        byzantine: frozenset[NodeId],
    ) -> None:
        self.view = view
        self.known_ids = known_ids
        self._active = active
        self._byzantine = byzantine

    round_index = AdversaryContext.round_index

    @property
    def correct_ids(self) -> frozenset[NodeId]:
        return self._active - self._byzantine

    def targets(self) -> list[NodeId]:
        return sorted(self._active)


class AdversaryStrategy(abc.ABC):
    """A pluggable Byzantine behaviour.

    A subclass sets :attr:`shared_act` when its ``act`` returns actions
    determined by the inbox and a :class:`SharedContext` alone, and is
    then a frozen dataclass: its class and field values are part of the
    key of the shared step, so it keeps its state in hashable fields (an
    unhashable value makes the node step privately).  Byzantine nodes
    with equal strategies, round index, known senders and system view
    that read one inbox object share one ``act`` call.  Strategies that
    read their own id (``rb-equivocating-sender``, ``rotor-split-echo``),
    generator (``random-noise``) or memory (``coordinated-equivocation``),
    run an inner process (``mimic-correct``) or wrap another strategy
    (``delayed``) do not declare it, and neither does ``silent``, whose
    empty ``act`` costs less than a shared step.
    """

    #: Human-readable name used by the registry and by experiment reports.
    name: str = "abstract"

    #: ``act`` reads nothing node-specific, so its actions are shared.
    shared_act: ClassVar[bool] = False

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
        self._shared = strategy.shared_act
        if self._shared:
            try:
                hash(strategy)
            except TypeError:  # an unhashable field value
                self._shared = False

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
        """The strategy's actions for this round.

        A shared step returns the actions tuple itself, the same object
        for every node with equal arguments on this inbox; a private step
        returns a new list.
        """

        ctx = self._ctx
        system = ctx.system
        if self._shared and system is not None:
            ctx.known_ids, actions = view.inbox.apply(
                _shared_step, self._strategy, view.round_index, ctx.known_ids,
                system.active_ids, system.byzantine_ids,
            )
            return actions
        ctx.known_ids = view.inbox.apply(with_senders, ctx.known_ids)
        ctx.view = view
        try:
            return list(self._strategy.act(ctx))
        finally:
            # Let the round's inbox, and everything cached on it, go with
            # the round instead of living until this node's next step.
            ctx.view = None


def _shared_step(
    inbox: Inbox,
    strategy: AdversaryStrategy,
    round_index: int,
    known: frozenset[NodeId],
    active: frozenset[NodeId],
    byzantine: frozenset[NodeId],
) -> tuple[frozenset[NodeId], tuple]:
    """A :attr:`~AdversaryStrategy.shared_act` node's step: its known
    senders with the inbox's added, and the strategy's actions as a tuple.

    The known senders are interned and the round's id sets are one object
    per round, so probing the key compares them by identity.
    """

    known = inbox.apply(with_senders, known)
    view = RoundView(round_index, inbox)
    return known, tuple(strategy.act(SharedContext(view, known, active, byzantine)))


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
