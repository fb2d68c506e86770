"""Algorithm 6 — Total ordering of events in a dynamic network (Section XI).

Nodes may join and leave over time (subject to ``n > 3f`` holding in every
round).  Each node witnesses events, broadcasts them, and the system must
agree on a single growing sequence of events.  The construction runs one
*parallel consensus* instance per protocol round: the instance started in
round ``r`` decides on the set of events that were broadcast in round
``r − 1``, and an instance becomes *final* once enough rounds have elapsed
for it to be guaranteed terminated everywhere (the paper's horizon
``r − r' > 5·|S_{r'}|/2 + 2``).  The output chain is the concatenation of
the final instances' outputs in instance order.

The guarantees (Theorem 6):

* **Chain-prefix** — the chains output by any two correct nodes are
  prefixes of one another;
* **Chain-growth** — if a correct node submits an event every round, the
  chain keeps growing.

Membership protocol: a joining node broadcasts ``present``; current members
reply with ``(ack, r)`` carrying their round number and add the newcomer to
their membership view ``S``; the joiner adopts the majority round number
plus one and initialises ``S`` to the ack senders.  A leaving node
broadcasts ``absent`` and keeps participating in its outstanding consensus
instances before going quiet.

Genesis nodes (the nodes present from the very first round) are configured
with the initial membership directly — the paper's model likewise assumes
the initial participants are consistently initialised (Section III).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from ..sim.messages import (
    Broadcast,
    Inbox,
    NodeId,
    Outgoing,
    Payload,
    Unicast,
    cached_payload_hash,
    intern_payload,
)
from ..sim.node import Process, RoundView
from .parallel_consensus import ParallelConsensusEngine, _Table, initial_table
from .tally import control_pairs

__all__ = [
    "PresentMsg",
    "AckMsg",
    "AbsentMsg",
    "EventMsg",
    "PCBatch",
    "ChainEntry",
    "TotalOrderProcess",
    "finality_horizon",
]


@dataclass(frozen=True)
class PresentMsg:
    """Join announcement broadcast by a node that wants to participate."""


@dataclass(frozen=True)
class AckMsg:
    """Reply to ``present`` carrying the responder's current round number."""

    round_number: int


@dataclass(frozen=True)
class AbsentMsg:
    """Leave announcement."""


@dataclass(frozen=True)
class EventMsg:
    """An event witnessed by a node, tagged with the protocol round."""

    event: Hashable
    round_number: int


@cached_payload_hash
@dataclass(frozen=True)
class PCBatch:
    """All of a node's parallel-consensus traffic for one round.

    ``groups`` holds ``(instance_round, payloads)`` pairs — the payloads
    every live consensus instance of this node emitted this round, in
    instance order.  One broadcast per node per round replaces the O(live
    instances × payloads) per-payload broadcasts of the original protocol,
    which dominated both the network's per-message bookkeeping and the
    inbox dedup hashing once chains grew past a few dozen rounds.

    The structural hash of this large nested tuple is cached
    (:func:`~repro.sim.messages.cached_payload_hash`), and the batch is
    interned before broadcast: in the common steady state every node emits
    the same consensus traffic for the same event set, so the round's
    batches collapse onto one canonical instance whose digest is computed
    once system-wide.
    """

    groups: tuple[tuple[int, tuple[Payload, ...]], ...]


#: Bulk (consensus-plane) payload types the membership/event intake skips.
_BULK_TYPES = (PCBatch,)


@dataclass(frozen=True)
class ChainEntry:
    """One ordered event: which instance decided it and who reported it."""

    instance_round: int
    reporter: NodeId
    event: Hashable

    def key(self) -> tuple:
        return (self.instance_round, repr(self.reporter), repr(self.event))


def finality_horizon(membership_size: int) -> float:
    """The paper's finality horizon ``5·|S|/2 + 2`` for one instance."""

    return 5.0 * membership_size / 2.0 + 2.0


@dataclass
class _InstanceRecord:
    """A per-round parallel-consensus instance and its bookkeeping.

    Lifecycle: *live* (stepped every round) → *quiescent* (decided, linger
    window closed, nothing left to say — the engine is dropped and only its
    outputs are kept) → *pruned* (the finality horizon passed, the outputs
    entered the chain, and the record is deleted from ``_instances``).
    """

    instance_round: int
    engine: ParallelConsensusEngine | None
    membership: frozenset[NodeId]
    local_round: int = 0
    quiescent: bool = False
    # Snapshot of ``engine.outputs`` taken when the record goes quiescent.
    decided_outputs: dict | None = None

    @property
    def all_decided(self) -> bool:
        return self.quiescent or self.engine.all_decided

    @property
    def outputs(self) -> dict:
        return self.decided_outputs if self.quiescent else self.engine.outputs


#: Memo key for the per-instance routing table cached on each inbox.
_ROUTE_KEY = "total-order-routing"

#: Memo key (with the round number and membership view) of one round's
#: membership and event intake.
_INTAKE_KEY = "total-order-intake"

#: Memo key of the empty inbox of the instances without traffic.
_QUIET_KEY = "total-order-quiet"

#: The ``(instance_round, payloads)`` groups of a ``PCBatch``.
_batch_groups = attrgetter("groups")


def _route_instances(inbox: Inbox) -> dict[int, Inbox]:
    """Split an inbox's batched consensus traffic into per-instance inboxes.

    :meth:`~repro.sim.messages.Inbox.split` over the ``PCBatch`` rows:
    instance ``r``'s inbox holds every sender's payloads for ``r``, in row
    order with each sender's duplicates collapsed (a sender that delivered
    several batches, as a replaying attacker does, has them merged).  The
    split works on the columns, so a batch that ``k`` senders delivered —
    the interned steady state — is hashed once, not ``k`` times.  The
    result is memoized on the inbox (:meth:`~repro.sim.messages.Inbox.memo`):
    every node handed the same inbox object shares one split per round.
    """

    return inbox.split(PCBatch, _batch_groups)


def _quiet(inbox: Inbox) -> Inbox:
    return Inbox.empty()


def _intake(
    inbox: Inbox, round_number: int, members: frozenset[NodeId]
) -> tuple[frozenset[NodeId], tuple[NodeId, ...], _Table]:
    """One round's membership and event intake: ``(members', joiners,
    start)``.

    ``members'`` is the membership view after this round's ``present`` and
    ``absent`` announcements (interned), ``joiners`` the ``present``
    senders in row order, each owed an ack, and ``start`` the interned
    :func:`~repro.core.parallel_consensus.initial_table` of this round's
    instance, whose input pairs are the events tagged with the previous
    protocol round (a small tolerance of one round absorbs the join skew).
    It depends on the inbox, the round number and the view alone, so nodes
    reading one inbox with one view compute it once
    (:meth:`~repro.sim.messages.Inbox.memo`) and start their instances
    from one table.  Batched consensus traffic is routed separately
    (:func:`_route_instances`); this pass only reads the O(events)
    control-plane rows, filtered once per inbox by
    :func:`~repro.core.tally.control_pairs`.
    """

    current: set[NodeId] | None = None
    joiners: list[NodeId] = []
    events: list[tuple[NodeId, Hashable]] = []
    for sender, payload in control_pairs(inbox, _BULK_TYPES):
        if isinstance(payload, PresentMsg):
            if current is None:
                current = set(members)
            current.add(sender)
            joiners.append(sender)
        elif isinstance(payload, AbsentMsg):
            if current is None:
                current = set(members)
            current.discard(sender)
        elif isinstance(payload, EventMsg):
            if payload.round_number >= round_number - 2:
                events.append((sender, payload.event))
    if current is not None:
        members = intern_payload(frozenset(current))
    pairs = {(sender, repr(event)): event for sender, event in events}
    return members, tuple(joiners), initial_table(pairs)


class TotalOrderProcess(Process):
    """A correct participant of the dynamic total-ordering protocol.

    Parameters
    ----------
    node_id:
        The node's identifier.
    initial_members:
        The genesis membership (including this node) when the node is
        present from the first round; ``None`` marks a joining node that
        must run the ``present``/``ack`` handshake first.
    events:
        Either a mapping ``protocol round -> event`` or a callable
        ``(round) -> event | None`` describing the events this node
        witnesses.
    leave_round:
        Protocol round at which the node announces ``absent`` and starts
        winding down (``None`` = stays forever).

    Finalized instances are pruned from memory as soon as their outputs
    enter the chain; decided instances stop being stepped once their linger
    window closes (see :class:`_InstanceRecord`).
    """

    def __init__(
        self,
        node_id: NodeId,
        *,
        initial_members: Iterable[NodeId] | None = None,
        events: Mapping[int, Hashable] | Callable[[int], Hashable | None] | None = None,
        leave_round: int | None = None,
    ) -> None:
        super().__init__(node_id)
        self._joining = initial_members is None
        # The membership view ``S``, interned: nodes with equal views hold
        # one frozenset, which keys the shared intake and sender filters.
        self._members: frozenset[NodeId] = frozenset()
        if not self._joining:
            self._members = intern_payload(frozenset((*initial_members, node_id)))
        self._round = 0  # the protocol round r
        self._join_phase = 0  # 0 = not started, 1 = present sent, 2 = active
        self._join_wait = 0  # silent rounds since `present` went out
        if not self._joining:
            self._join_phase = 2
        self._events = events or {}
        self._leave_round = leave_round
        self._leaving = False
        self._left = False
        self._instances: dict[int, _InstanceRecord] = {}
        self._pending_events: list[tuple[NodeId, Hashable]] = []
        self._chain: list[ChainEntry] = []
        self._final_upto = 0
        self._overruns: dict[int, int] = {}

    # -- results -----------------------------------------------------------------

    @property
    def chain(self) -> tuple[ChainEntry, ...]:
        """The totally ordered sequence of events output so far."""

        return tuple(self._chain)

    @property
    def output(self) -> tuple[ChainEntry, ...] | None:
        return tuple(self._chain) if self._chain else None

    @property
    def decided(self) -> bool:
        return bool(self._chain)

    @property
    def members(self) -> frozenset[NodeId]:
        """The node's current membership view ``S``."""

        return self._members

    @property
    def protocol_round(self) -> int:
        return self._round

    @property
    def final_round(self) -> int:
        """``R`` — the largest round whose instances are all final."""

        return self._final_upto

    @property
    def joined(self) -> bool:
        return self._join_phase == 2

    @property
    def finality_overruns(self) -> dict[int, int]:
        """Instances still undecided here when their finality horizon passed.

        Maps each such instance round to the protocol round in which the
        overrun was first seen.  Theorem 6 rules overruns out when
        ``n > 3f`` holds in every round; the chain waits for an overrun
        instance to decide rather than skipping it.
        """

        return dict(self._overruns)

    # -- event source -------------------------------------------------------------

    def _witnessed_event(self, round_number: int) -> Hashable | None:
        if callable(self._events):
            return self._events(round_number)
        return self._events.get(round_number)

    # -- the state machine ------------------------------------------------------------

    def step(self, view: RoundView) -> Sequence[Outgoing]:
        if self._left:
            self.halt()
            return ()
        if self._joining and self._join_phase < 2:
            return self._join_handshake(view)
        return self._participate(view)

    # The present/ack handshake (Algorithm 6, lines 1–6).
    def _join_handshake(self, view: RoundView) -> Sequence[Outgoing]:
        if self._join_phase == 0:
            self._join_phase = 1
            self._join_wait = 0
            return [Broadcast(PresentMsg())]
        # join phase 1: the acks arrive two rounds after `present` was sent
        # (one round for `present` to be delivered, one for the replies).
        acks: dict[NodeId, int] = {}
        for sender, payload in view.inbox.items():
            if isinstance(payload, AckMsg):
                acks[sender] = payload.round_number
        if not acks:
            self._join_wait += 1
            if self._join_wait >= 3:
                # Nobody answered (e.g. our `present` was lost to churn);
                # start the handshake over.
                self._join_phase = 0
            return ()
        counts: dict[int, int] = {}
        for value in acks.values():
            counts[value] = counts.get(value, 0) + 1
        majority_round = max(counts.items(), key=lambda item: (item[1], -item[0]))[0]
        # The responders stamped the round in which they processed our
        # `present`; by the time their acks reach us they have advanced one
        # more round, so adopting `majority_round` here and letting
        # ``_participate`` increment it keeps our round counter aligned with
        # theirs (which is what makes the instance tags line up).
        self._round = majority_round
        self._members = intern_payload(frozenset(acks) | {self.node_id})
        self._join_phase = 2
        return self._participate(view, just_joined=True)

    def _participate(self, view: RoundView, *, just_joined: bool = False) -> Sequence[Outgoing]:
        outgoing: list[Outgoing] = []
        self._round += 1
        round_number = self._round

        # -- 1. membership and event intake, once per inbox and view -----------
        members = self._members
        self._members, joiners, start = view.inbox.memo(
            (_INTAKE_KEY, round_number, members),
            lambda ib: _intake(ib, round_number, members),
        )
        for sender in joiners:
            outgoing.append(Unicast(sender, AckMsg(round_number)))

        # -- 2. our own event for this round ----------------------------------------
        if not self._leaving and not just_joined:
            event = self._witnessed_event(round_number)
            if event is not None:
                outgoing.append(Broadcast(EventMsg(event, round_number)))

        # -- 3. leaving --------------------------------------------------------------
        if (
            self._leave_round is not None
            and round_number >= self._leave_round
            and not self._leaving
        ):
            self._leaving = True
            outgoing.append(Broadcast(AbsentMsg()))

        # -- 4. start this round's parallel-consensus instance -----------------------
        if not self._leaving and not just_joined:
            engine = ParallelConsensusEngine(
                self.node_id, start, allowed_senders=self._members
            )
            self._instances[round_number] = _InstanceRecord(
                instance_round=round_number,
                engine=engine,
                membership=self._members,
            )

        # -- 5. advance the live (non-quiescent) instances ---------------------------
        # A decided instance whose linger window has closed has nothing left
        # to say: it is marked quiescent, its engine is dropped (only the
        # outputs survive), and it is never stepped again.  This is what
        # keeps the per-round cost bounded by the decide+linger window
        # instead of growing with the ~5n/2-round finality horizon.
        routed = view.inbox.memo(_ROUTE_KEY, _route_instances)
        groups: list[tuple[int, tuple[Payload, ...]]] = []
        # Instances without traffic this round read one empty inbox per
        # round inbox, so their engines share transitions like the rest.
        empty = view.inbox.memo(_QUIET_KEY, _quiet)
        for record in self._instances.values():
            if record.quiescent:
                continue
            record.local_round += 1
            engine = record.engine
            payloads = engine.step(
                record.local_round, routed.get(record.instance_round, empty)
            )
            if payloads:
                groups.append((record.instance_round, tuple(payloads)))
            elif engine.idle:
                record.quiescent = True
                record.decided_outputs = dict(engine.outputs)
                record.engine = None
        if groups:
            # One batched wrapper broadcast per round, not one per payload;
            # interning collapses the identical batches most nodes emit.
            outgoing.append(Broadcast(intern_payload(PCBatch(tuple(groups)))))

        # -- 6. finality and chain output -------------------------------------------
        self._update_chain(round_number)

        # -- 7. wind down after leaving -----------------------------------------------
        if self._leaving:
            outstanding = any(
                not record.all_decided for record in self._instances.values()
            )
            if not outstanding:
                self._left = True
        return outgoing

    # -- finality ---------------------------------------------------------------------

    def _update_chain(self, round_number: int) -> None:
        # R (line 29) is the largest round such that every round up to R is
        # final.  An instance past its horizon whose local engine has not
        # decided yet is recorded in ``_overruns`` and waited for, so the
        # output stays well-defined even under a too-tight horizon.
        # A record that becomes final is pruned right after its outputs
        # enter the chain — the chain itself is the durable result, so
        # ``_instances`` holds only the horizon window, not the full history.
        next_round = self._final_upto + 1
        while next_round in self._instances or next_round < round_number:
            record = self._instances.get(next_round)
            if record is None:
                if next_round >= round_number:
                    break
                # A round for which we never started an instance (e.g. we
                # had not joined yet) contributes nothing.
                self._final_upto = next_round
                next_round += 1
                continue
            elapsed = round_number - record.instance_round
            if elapsed <= finality_horizon(len(record.membership)):
                break
            if not record.all_decided:
                self._overruns.setdefault(next_round, round_number)
                break
            outputs = record.outputs
            for key in sorted(outputs, key=repr):
                reporter, _ = key
                self._chain.append(
                    ChainEntry(
                        instance_round=record.instance_round,
                        reporter=reporter,
                        event=outputs[key],
                    )
                )
            del self._instances[next_round]
            self._final_upto = next_round
            next_round += 1
