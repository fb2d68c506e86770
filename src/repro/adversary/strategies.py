"""Protocol-agnostic Byzantine strategies.

These strategies know nothing about the protocol being attacked; they
implement generic misbehaviour (staying silent, crashing, spamming, replay
amplification, value equivocation, or faithfully mimicking a correct node).
Protocol-aware attacks — crafted ``echo``/``prefer``/``opinion`` spoofing —
live in :mod:`repro.adversary.protocol_attacks` because they need the
protocols' message types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..sim.messages import Broadcast, Outgoing, Payload, Unicast
from ..sim.node import Process, RoundView
from .base import AdversaryContext, AdversaryStrategy, send_split

__all__ = [
    "SilentStrategy",
    "CrashStrategy",
    "RandomNoiseStrategy",
    "ReplayStrategy",
    "EquivocateValueStrategy",
    "MimicStrategy",
    "DelayedStrategy",
    "CoordinatedEquivocationStrategy",
]


class SilentStrategy(AdversaryStrategy):
    """Never sends anything.

    The mildest Byzantine behaviour — equivalent to an initially crashed
    node.  Correct nodes simply never learn that this node exists, which is
    exactly the "a Byzantine node may get itself known to only a subset of
    nodes" scenario the paper's model allows.
    """

    name = "silent"

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:  # noqa: ARG002
        return ()


@dataclass(frozen=True)
class CrashStrategy(AdversaryStrategy):
    """Participates honestly-looking (broadcasts a filler payload) for a few
    rounds, then crashes and stays silent forever.

    ``filler`` is the payload broadcast while alive; protocols that expect a
    "present"/"init" first-round message can be given the appropriate
    payload by the workload generator.
    """

    crash_after_round: int = 1
    filler: Payload = "present"
    name = "crash"
    shared_act = True

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        if ctx.round_index > self.crash_after_round:
            return ()
        return [Broadcast(self.filler)]


@dataclass
class RandomNoiseStrategy(AdversaryStrategy):
    """Broadcasts payloads drawn from a caller-supplied factory.

    The factory receives the adversary context so it can construct
    syntactically valid protocol messages with garbage contents; the default
    factory produces opaque tokens that correct protocols ignore, which
    still stresses the ``nv`` bookkeeping (the noise node becomes a known
    sender everywhere).
    """

    payload_factory: Callable[[AdversaryContext], Payload] | None = None
    messages_per_round: int = 1
    name = "random-noise"

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        actions: list[Outgoing] = []
        for i in range(self.messages_per_round):
            if self.payload_factory is not None:
                payload = self.payload_factory(ctx)
            else:
                payload = ("noise", int(ctx.rng.integers(0, 1_000_000)), i)
            actions.append(Broadcast(payload))
        return actions


@dataclass(frozen=True)
class ReplayStrategy(AdversaryStrategy):
    """Re-broadcasts every payload it received in the previous round.

    An amplification attack: the adversary tries to push other nodes over
    their relative thresholds by repeating whatever echoes are in flight.
    (The model permits duplicates across rounds; within a round duplicates
    are discarded by the receivers.)  The inbox's payload table lists the
    round's distinct payloads in the order of their first row, so each is
    sent once, in the order it first arrived.
    """

    name = "replay"
    shared_act = True

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        _senders, _rows, table = ctx.view.inbox.columns()
        return [Broadcast(payload) for payload in table]


@dataclass(frozen=True)
class EquivocateValueStrategy(AdversaryStrategy):
    """Sends ``payload_a`` to one half of the system and ``payload_b`` to the
    other half, every round.

    This is the generic "conflicting information" behaviour the paper's
    model explicitly allows and that reliable broadcast is designed to
    neutralise.
    """

    payload_a: Payload = ("value", 0)
    payload_b: Payload = ("value", 1)
    name = "equivocate-value"
    shared_act = True

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        return send_split(ctx.targets(), self.payload_a, self.payload_b)


class MimicStrategy(AdversaryStrategy):
    """Runs a real correct protocol process and forwards its messages.

    A Byzantine node that behaves correctly is the hardest case to *detect*
    and the easiest to *tolerate*; experiments use it as a sanity baseline
    (protocol guarantees must hold a fortiori).
    """

    name = "mimic-correct"

    def __init__(self, inner_factory: Callable[[int], Process]) -> None:
        self._inner_factory = inner_factory
        self._inner: Process | None = None

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        if self._inner is None:
            self._inner = self._inner_factory(ctx.node_id)
        if self._inner.halted:
            return ()
        return list(self._inner.step(RoundView(ctx.round_index, ctx.view.inbox)))


@dataclass
class CoordinatedEquivocationStrategy(AdversaryStrategy):
    """Phased, coordinated, multi-round equivocation.

    For the first ``quiet_rounds`` rounds after activation the node looks
    honest — it broadcasts ``filler`` so every correct node counts it into
    its membership estimate ``nv`` (raising the relative thresholds the
    later lies have to clear).  From then on it splits the membership into
    two deterministic halves (sorted ids, :func:`send_split`) and sends
    ``payload_a`` to one half and ``payload_b`` to the other, swapping the
    halves on every odd round so each victim accumulates *both* conflicting
    values over time.

    The coordination is free: every Byzantine node running this strategy
    derives the same halves from the same sorted target list and the same
    global round parity, so ``f`` attackers push the same lie at the same
    victims simultaneously — the strongest form of the conflicting-
    information behaviour the paper's model allows, without any covert
    channel.  Activation state lives in ``ctx.memory`` so the phase
    counter survives across rounds and composes with late joins (a joiner
    starts its own quiet phase at its first active round).
    """

    quiet_rounds: int = 2
    payload_a: Payload = ("value", 0)
    payload_b: Payload = ("value", 1)
    flip_each_round: bool = True
    filler: Payload = "present"
    name = "coordinated-equivocation"

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        memory = ctx.memory.setdefault("coordinated-equivocation", {})
        start = memory.setdefault("first_round", ctx.round_index)
        if ctx.round_index - start < self.quiet_rounds:
            return [Broadcast(self.filler)]
        payload_a, payload_b = self.payload_a, self.payload_b
        # Parity of the *global* round, not the local phase: nodes that
        # activated in different rounds still flip in lock-step.
        if self.flip_each_round and ctx.round_index % 2 == 1:
            payload_a, payload_b = payload_b, payload_a
        return send_split(ctx.targets(), payload_a, payload_b)


@dataclass
class DelayedStrategy(AdversaryStrategy):
    """Stays silent until ``start_round`` and then delegates to ``inner``.

    Models a late-revealing Byzantine node: correct nodes' ``nv`` counters
    do not include it initially, which is precisely the situation the
    relative (nv/3) thresholds have to survive.
    """

    inner: AdversaryStrategy
    start_round: int = 3
    name = "delayed"

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        if ctx.round_index < self.start_round:
            return ()
        return self.inner.act(ctx)
