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
reads nothing node-specific: not ``ctx.node_id``, ``ctx.rng``,
``ctx.memory``, ``ctx.seed`` or an inner process, only the inbox and what
:func:`_act_key` holds — the strategy's class and field values, the round
index, the node's interned known senders, and the round's active and
Byzantine ids (all that :meth:`AdversaryContext.targets` and
:attr:`AdversaryContext.correct_ids` read).  :meth:`ByzantineProcess.step`
then stores the node's step on the inbox
(:meth:`~repro.sim.messages.Inbox.memo`) under that key — its known
senders with the inbox's added, and the strategy's actions as a tuple —
so nodes with equal keys reading one inbox share one ``act`` call, its
payload objects and the actions tuple itself, which ``step`` returns:
the network stages that tuple once for all of them.  The memo holds
actions, never an inbox, and dies with the round.

Ten registered strategies declare it: ``crash``, ``replay``,
``equivocate-value``, ``rb-false-echo``, ``rb-forged-source``,
``rotor-candidate-stuffer``, ``rotor-usurper``, ``consensus-split-vote``,
``consensus-strongprefer-spoofer`` and ``approx-outlier``.  The other
registered strategies step privately: ``silent`` sends nothing, so a memo
would cost more than its ``act``; ``random-noise`` draws from the node's
generator; ``coordinated-equivocation`` keeps its activation round in the
node's memory; ``rb-equivocating-sender`` and ``rotor-split-echo`` put
their own id in their payloads.  So do ``mimic-correct``, which runs an
inner process, and ``delayed``, which wraps any strategy.  A declared
strategy also steps privately when the node has no system view
(``targets()`` then reads its own id) or a field value is unhashable, and
in effect in every delayed round, whose inboxes are one per recipient.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, ClassVar, Sequence

import numpy as np

from ..sim.messages import Broadcast, Inbox, NodeId, Outgoing, Payload, Unicast, intern_payload
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
    """A pluggable Byzantine behaviour.

    A subclass sets :attr:`shared_act` when its ``act`` returns actions
    determined by the inbox and the inputs :func:`_act_key` holds alone:
    the strategy's class and field values, the round index, the node's
    known senders, and the round's active and Byzantine ids.  Byzantine
    nodes with equal keys that read one inbox object then share one
    ``act`` call.  Such a strategy keeps its state in its fields (hashable
    values; an unhashable one makes the node step privately) and never
    reads ``ctx.node_id``, ``ctx.rng``, ``ctx.memory``, ``ctx.seed`` or
    ``ctx.system`` beyond ``targets()`` and ``correct_ids``.  Strategies
    that read their own id (``rb-equivocating-sender``,
    ``rotor-split-echo``), generator (``random-noise``) or memory
    (``coordinated-equivocation``), run an inner process
    (``mimic-correct``) or wrap another strategy (``delayed``) do not
    declare it, and neither does ``silent``, whose empty ``act`` costs less
    than a memo probe.
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

        A shared step returns the memoized actions tuple itself, the same
        object for every node with an equal key on this inbox; a private
        step returns a new list.
        """

        ctx = self._ctx
        strategy = self._strategy
        system = ctx.system
        key = None
        if strategy.shared_act and system is not None:
            try:
                key = _act_key(
                    type(strategy), tuple(vars(strategy).values()), view.round_index,
                    ctx.known_ids, system.active_ids, system.byzantine_ids,
                )
                hash(key)
            except TypeError:  # an unhashable field value
                key = None
        ctx.view = view
        try:
            if key is not None:
                ctx.known_ids, actions = view.inbox.memo(key, self._learn_and_act)
                return actions
            self._learn(view.inbox)
            return list(strategy.act(ctx))
        finally:
            # Let the round's inbox, and everything memoized on it, go
            # with the round instead of living until this node's next step.
            ctx.view = None

    def _learn(self, inbox: Inbox) -> None:
        """Add the inbox's senders to the node's known ids."""

        ctx = self._ctx
        # Same shared-union memoization as KnownSenders.observe: every
        # Byzantine node with the same prior membership reuses one union
        # per shared inbox instead of copying an O(n) frozenset a round.
        known = ctx.known_ids
        ctx.known_ids = inbox.memo(
            ("byz-known", known),
            lambda ib: intern_payload(known | ib.senders),
        )

    def _learn_and_act(self, inbox: Inbox) -> tuple[frozenset[NodeId], tuple]:
        """:meth:`_learn`, then act: the new known ids and the actions."""

        self._learn(inbox)
        ctx = self._ctx
        return ctx.known_ids, tuple(self._strategy.act(ctx))


def _act_key(
    cls: type,
    fields: tuple,
    round_index: int,
    known: frozenset[NodeId],
    active: frozenset[NodeId],
    byzantine: frozenset[NodeId],
) -> tuple:
    """The memo key of a :attr:`~AdversaryStrategy.shared_act` node's step
    on an inbox.

    It holds every input such a step may read besides the inbox: the
    strategy's class and field values (its instance attributes, in
    definition order), the round index, the node's known senders before
    the round (with the inbox they fix the set ``act`` reads), and the
    round's active and Byzantine ids.  The known senders are interned and
    the round's id sets are one object per round, so probing the key
    compares them by identity.
    """

    return ("byz-act", cls, fields, round_index, known, active, byzantine)


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
