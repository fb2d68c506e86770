"""Protocol-aware Byzantine attacks.

Each strategy here crafts syntactically valid messages of one of the core
protocols and uses them adversarially: equivocating as the designated
sender of a reliable broadcast, stuffing the rotor-coordinator's candidate
set with fabricated identifiers, splitting the vote in consensus, skewing
the trimmed mean of approximate agreement, or lying as the selected
coordinator.  These are the behaviours the paper's proofs explicitly have
to defeat, so the experiments run each protocol against the matching
attacks (plus the generic ones from :mod:`repro.adversary.strategies`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from ..core.approximate_agreement import ValueMessage
from ..core.consensus import ConsensusInput, Prefer, StrongPrefer
from ..core.reliable_broadcast import Echo, Initial, Present
from ..core.rotor_coordinator import Opinion, RotorEcho, RotorInit
from ..sim.messages import Broadcast, NodeId, Outgoing, Unicast
from .base import AdversaryContext, AdversaryStrategy, send_split

__all__ = [
    "EquivocatingSenderStrategy",
    "FalseEchoStrategy",
    "ForgedSourceEchoStrategy",
    "CandidateStufferStrategy",
    "SplitEchoStrategy",
    "SplitVoteStrategy",
    "StrongPreferSpooferStrategy",
    "UsurperCoordinatorStrategy",
    "OutlierValueStrategy",
]


# ---------------------------------------------------------------------------
# Reliable broadcast attacks (Algorithm 1)
# ---------------------------------------------------------------------------


@dataclass
class EquivocatingSenderStrategy(AdversaryStrategy):
    """A Byzantine *designated sender* that tells half the system ``m_a`` and
    the other half ``m_b``, then echoes both to keep the confusion alive.

    Reliable broadcast does not promise that a Byzantine sender's message is
    accepted — it promises that correct nodes never accept *conflicting*
    evidence inconsistently (relay keeps acceptance within one round across
    correct nodes).
    """

    message_a: Hashable = "A"
    message_b: Hashable = "B"
    name = "rb-equivocating-sender"

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        me = ctx.node_id
        if ctx.round_index == 1:
            return send_split(
                ctx.targets(), Initial(self.message_a, me), Initial(self.message_b, me)
            )
        if ctx.round_index == 2:
            return send_split(
                ctx.targets(), Echo(self.message_a, me), Echo(self.message_b, me)
            )
        return ()


@dataclass
class FalseEchoStrategy(AdversaryStrategy):
    """Echoes a message the designated sender never broadcast.

    Tries to defeat unforgeability: if enough false echoes accumulated, a
    correct node would accept a fabricated ``(m, s)`` for a *correct* ``s``.
    With fewer than ``nv/3`` Byzantine senders this can never reach the
    acceptance quorum (Lemma 2).
    """

    forged_message: Hashable = "forged"
    victim_source: NodeId | None = None
    name = "rb-false-echo"
    shared_act = True

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        if ctx.round_index == 1:
            return [Broadcast(Present())]
        source = self.victim_source
        if source is None:
            correct = sorted(ctx.correct_ids) or sorted(ctx.known_ids)
            if not correct:
                return []
            source = correct[0]
        return [Broadcast(Echo(self.forged_message, source))]


@dataclass
class ForgedSourceEchoStrategy(AdversaryStrategy):
    """Echoes on behalf of a *non-existent* node identifier.

    The model forbids forging the sender field of the direct channel but a
    Byzantine node may claim to have heard from nodes that do not exist;
    this strategy fabricates such claims to inflate candidate/echo counts.
    """

    phantom_id: NodeId = 10_000_000
    forged_message: Hashable = "phantom"
    name = "rb-forged-source"
    shared_act = True

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        if ctx.round_index == 1:
            return [Broadcast(Present())]
        return [Broadcast(Echo(self.forged_message, self.phantom_id))]


# ---------------------------------------------------------------------------
# Rotor-coordinator attacks (Algorithm 2)
# ---------------------------------------------------------------------------


@dataclass
class CandidateStufferStrategy(AdversaryStrategy):
    """Tries to stuff the candidate set ``C_v`` with phantom identifiers so
    the rotation never reaches a correct coordinator.

    Lemma 7's counting argument shows the stuffing cannot outpace the
    rotation: each stuffed identifier costs the adversary a non-silent
    round, and there can be at most ``2f`` of those.
    """

    phantom_ids: tuple[NodeId, ...] = (9_000_001, 9_000_002, 9_000_003)
    participate: bool = True
    name = "rotor-candidate-stuffer"
    shared_act = True

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        if ctx.round_index == 1:
            return [Broadcast(RotorInit())] if self.participate else []
        actions: list[Outgoing] = []
        if ctx.round_index == 2:
            for sender in sorted(ctx.known_ids):
                actions.append(Broadcast(RotorEcho(sender)))
        for phantom in self.phantom_ids:
            actions.append(Broadcast(RotorEcho(phantom)))
        return actions


@dataclass
class SplitEchoStrategy(AdversaryStrategy):
    """Sends ``echo(p)`` for its own identifier to only half of the nodes,
    attempting to make candidate sets diverge persistently.

    The reliable-broadcast style maintenance of ``C_v`` (relay on ``nv/3``)
    bounds the divergence to a single round (Lemma 6).
    """

    name = "rotor-split-echo"

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        if ctx.round_index == 1:
            targets = ctx.targets()
            init = RotorInit()
            return [Unicast(dest, init) for dest in targets[: len(targets) // 2]]
        echo = RotorEcho(ctx.node_id)
        return [Unicast(dest, echo) for dest in ctx.targets()[::2]]


@dataclass
class UsurperCoordinatorStrategy(AdversaryStrategy):
    """Behaves just enough to get into the candidate set, then — whenever it
    could plausibly be the selected coordinator — sends *different* opinions
    to different nodes.

    This is the attack the ``f + 1`` rotation is designed to survive: a
    Byzantine coordinator can split opinions for one phase, but a good round
    with a correct coordinator happens before any correct node stops.
    """

    opinion_a: Hashable = 0
    opinion_b: Hashable = 1
    name = "rotor-usurper"
    shared_act = True

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        if ctx.round_index == 1:
            return [Broadcast(RotorInit())]
        if ctx.round_index == 2:
            return [Broadcast(RotorEcho(sender)) for sender in sorted(ctx.known_ids)]
        return send_split(
            ctx.targets(), Opinion(self.opinion_a), Opinion(self.opinion_b)
        )


# ---------------------------------------------------------------------------
# Consensus attacks (Algorithm 3 / 5)
# ---------------------------------------------------------------------------


@dataclass
class SplitVoteStrategy(AdversaryStrategy):
    """Full-stack consensus equivocation.

    Participates in the initialization (so it counts towards every ``nv``),
    then every round sends ``input``/``prefer``/``strongprefer`` for value
    ``a`` to one half of the system and for value ``b`` to the other half,
    and equivocates as coordinator if it is ever selected.
    """

    value_a: Hashable = 0
    value_b: Hashable = 1
    name = "consensus-split-vote"
    shared_act = True

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        if ctx.round_index == 1:
            return [Broadcast(RotorInit())]
        if ctx.round_index == 2:
            return [Broadcast(RotorEcho(sender)) for sender in sorted(ctx.known_ids)]
        # Each value's four votes are built once and sent to its whole half.
        votes_a, votes_b = (
            (ConsensusInput(value), Prefer(value), StrongPrefer(value), Opinion(value))
            for value in (self.value_a, self.value_b)
        )
        targets = ctx.targets()
        half = len(targets) // 2
        return [
            Unicast(dest, payload)
            for index, dest in enumerate(targets)
            for payload in (votes_a if index < half else votes_b)
        ]


@dataclass
class StrongPreferSpooferStrategy(AdversaryStrategy):
    """Stays quiet except for ``strongprefer`` spam for a fixed value,
    attempting to trick nodes into terminating with a value nobody input.

    Termination requires ``2·nv/3`` strongprefer support; with fewer than
    ``nv/3`` Byzantine senders the spam can neither trigger termination nor
    (alone) stop nodes from adopting the coordinator's opinion.
    """

    value: Hashable = 1
    name = "consensus-strongprefer-spoofer"
    shared_act = True

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        if ctx.round_index == 1:
            return [Broadcast(RotorInit())]
        if ctx.round_index == 2:
            return [Broadcast(RotorEcho(sender)) for sender in sorted(ctx.known_ids)]
        return [Broadcast(StrongPrefer(self.value))]


# ---------------------------------------------------------------------------
# Approximate agreement attacks (Algorithm 4)
# ---------------------------------------------------------------------------


@dataclass
class OutlierValueStrategy(AdversaryStrategy):
    """Sends wildly different extreme values to different nodes, trying to
    push their trimmed midpoints apart (or outside the correct input range).

    Lemma 12 shows the ``⌊nv/3⌋`` trimming removes every Byzantine value, so
    the outputs stay inside the correct range regardless.
    """

    low: float = -1.0e9
    high: float = 1.0e9
    name = "approx-outlier"
    shared_act = True

    def act(self, ctx: AdversaryContext) -> Sequence[Outgoing]:
        # One payload per (value, iteration), built once: each target gets
        # its value for this iteration and, from the second on, the last.
        iteration = ctx.round_index - 1
        iterations = (iteration, iteration - 1) if iteration > 0 else (iteration,)
        low, high = (
            tuple(ValueMessage(value, iteration=i) for i in iterations)
            for value in (self.low, self.high)
        )
        return [
            Unicast(dest, payload)
            for index, dest in enumerate(ctx.targets())
            for payload in (low if index % 2 == 0 else high)
        ]
