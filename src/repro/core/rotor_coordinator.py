"""Algorithm 2 — Rotor-Coordinator in the id-only model (Section VI).

The rotor-coordinator's job is to rotate through coordinators such that,
before any correct node stops, there has been a *good round*: a round in
which every correct node selected the same coordinator and that coordinator
is correct.  Classic algorithms get this for free by rotating through the
``f + 1`` smallest identifiers — impossible here because ``f`` is unknown
and identifiers are not consecutive.

The algorithm builds, at every node ``v``, a candidate set ``Cv`` that is
maintained with reliable-broadcast-style echoes (so candidate sets at
correct nodes agree up to one round of skew, Lemma 6), and cycles through
``Cv`` in identifier order.  A node stops once it re-selects a coordinator
it has selected before; Lemma 7 shows a good round must have occurred by
then, and Theorem 2 bounds termination by ``O(n)`` rounds.

Two classes are exported:

* :class:`RotorCoordinatorCore` — the embeddable state machine used by the
  consensus algorithms (Algorithms 3 and 5), which drive one *selection
  round* per phase while feeding every round's inbox into the candidate
  bookkeeping.
* :class:`RotorCoordinatorProcess` — the standalone process matching the
  paper's Algorithm 2 one-round-per-loop-iteration presentation, used by
  experiment E2.

Wire format: a node's per-round echoes travel as a single delta-coded
:class:`CandidateGossip` (the ``adds`` since its previous gossip, plus a
periodic full-set anchor with a cached digest) instead of one
:class:`RotorEcho` broadcast per candidate — during initialization that is
the difference between O(n³) and O(n²) wire messages system-wide.  Quorum
counting decodes the deltas only, so the candidate-set dynamics are
bit-identical to the per-candidate encoding; legacy ``RotorEcho`` payloads
remain accepted inbound.  See :class:`GossipEncoder`/:class:`GossipDecoder`
and the wire-format notes in :mod:`repro.sim.messages`.

Shared state: in a synchronous round every correct node with the same
view computes the same ``Cv``, relays and selection, so a core's state is
immutable and shared between cores.  ``Cv`` is an interned frozenset plus
its sorted tuple, the echoed set of the delta coder an interned frozenset
next to its emission count modulo :data:`GOSSIP_ANCHOR_PERIOD`, and ``Sv``
with the selection history one immutable log that each selection extends.
:meth:`RotorCoordinatorCore.observe`, the round-2 init gossip and
:meth:`RotorCoordinatorCore.execute_selection` store their results on the
inbox (:meth:`~repro.sim.messages.Inbox.memo`) under
:func:`_transition_key`, which holds every input that can differ between
cores reading one inbox.  Cores in equal states then run each transition
once per inbox and adopt the same result objects; a core with its own
inbox (delayed delivery) runs it alone, with the same result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from ..sim.messages import (
    Broadcast,
    Inbox,
    NodeId,
    Outgoing,
    Payload,
    cached_payload_hash,
    intern_payload,
)
from ..sim.node import KnownSenders, Process, RoundView
from .quorums import meets_one_third, meets_two_thirds
from .tally import candidate_support, init_senders

__all__ = [
    "RotorInit",
    "RotorEcho",
    "CandidateGossip",
    "GossipEncoder",
    "GossipDecoder",
    "GOSSIP_ANCHOR_PERIOD",
    "Opinion",
    "SelectionRecord",
    "RotorRoundOutcome",
    "RotorCoordinatorCore",
    "RotorCoordinatorProcess",
]


@dataclass(frozen=True)
class RotorInit:
    """Round-1 announcement: "I am willing to be a coordinator"."""


@dataclass(frozen=True)
class RotorEcho:
    """``echo(p)`` — a vote that node ``p`` announced itself.

    Legacy single-candidate wire format: still accepted on the inbound
    path (hand-built inboxes, Byzantine strategies), but correct nodes
    pack their per-round echoes into one :class:`CandidateGossip`.
    """

    candidate: NodeId


#: Every ``GOSSIP_ANCHOR_PERIOD``-th gossip a node emits carries a full-set
#: anchor, so a receiver that missed earlier deltas can resynchronise.
GOSSIP_ANCHOR_PERIOD = 4


@cached_payload_hash
@dataclass(frozen=True)
class CandidateGossip:
    """Delta-coded candidate gossip: one payload per node per round.

    ``adds`` are the candidates this sender newly echoes *this round* — the
    delta since its previous gossip — and carry exactly the per-round
    support one ``RotorEcho`` per candidate used to: quorum counting in
    :func:`repro.core.tally.candidate_support` reads ``adds`` only, so the
    candidate-set dynamics are bit-identical to the legacy encoding while
    the wire cost of the initialization echo wave drops from O(n) payloads
    per sender to one.

    ``anchor``, present on every :data:`GOSSIP_ANCHOR_PERIOD`-th emission,
    is the sender's full echoed set (sorted, including this round's adds).
    Anchors contribute **no** per-round support — they exist so a
    :class:`GossipDecoder` that missed deltas (late join, filtering,
    partitions) can deterministically reconstruct the sender's full set,
    and their digest is cached because receivers compare it against their
    reconstruction instead of re-deriving the set.
    """

    adds: tuple[NodeId, ...]
    anchor: tuple[NodeId, ...] | None = None

    def anchor_digest(self) -> int | None:
        """Cached digest of the full-set anchor (``None`` without one).

        A cheap fingerprint for logging/comparison; resynchronisation
        decisions compare the sets themselves (digests can collide).  The
        ``_wire`` prefix keeps the cache out of pickles like every other
        wire cache (see :func:`~repro.sim.messages.cached_payload_hash`).
        """

        if self.anchor is None:
            return None
        cached = self.__dict__.get("_wire_anchor_digest")
        if cached is None:
            cached = hash(self.anchor)
            object.__setattr__(self, "_wire_anchor_digest", cached)
        return cached


#: The empty set every core, encoder and log starts from.  ``frozenset()``
#: is not a singleton, and memo keys hold these sets: equal states must
#: hold the same object for a key lookup to be an identity check.
_NOBODY: frozenset[NodeId] = frozenset()


def _emit(
    echoed: frozenset[NodeId], phase: int, adds: tuple[NodeId, ...]
) -> tuple[CandidateGossip | None, frozenset[NodeId], int]:
    """One emission of the delta coder: ``(gossip, echoed', phase')``.

    ``echoed`` is every candidate gossiped about so far and ``phase`` the
    emission count modulo :data:`GOSSIP_ANCHOR_PERIOD`; the emission that
    brings the phase back to 0 carries the full-set anchor.  The gossip
    and the new echoed set are interned.  Nothing to say is ``None`` and
    the state unchanged.
    """

    if not adds:
        return None, echoed, phase
    echoed = intern_payload(echoed.union(adds))
    phase = (phase + 1) % GOSSIP_ANCHOR_PERIOD
    anchor = tuple(sorted(echoed)) if phase == 0 else None
    return intern_payload(CandidateGossip(adds=adds, anchor=anchor)), echoed, phase


class GossipEncoder:
    """Delta-codes a node's outgoing candidate echoes.

    Tracks the full set of candidates echoed so far; :meth:`emit` turns one
    round's newly-echoed candidates into a single interned
    :class:`CandidateGossip`, attaching the full-set anchor every
    :data:`GOSSIP_ANCHOR_PERIOD`-th emission.  The rotor core keeps the
    same two fields itself and emits through the same function.
    """

    __slots__ = ("_echoed", "_phase")

    def __init__(self) -> None:
        self._echoed = _NOBODY
        self._phase = 0

    @property
    def echoed(self) -> frozenset[NodeId]:
        """Every candidate this encoder has gossiped about so far."""

        return self._echoed

    def emit(self, adds: Iterable[NodeId]) -> CandidateGossip | None:
        """Encode one round's echoes; ``None`` when there is nothing to say."""

        gossip, self._echoed, self._phase = _emit(self._echoed, self._phase, tuple(adds))
        return gossip


class GossipDecoder:
    """Reconstructs each sender's full echoed set from its gossip stream.

    The per-round protocol logic never needs this — quorum counting uses
    the deltas directly — but diagnostics, tooling and the wire-format
    property tests do: applying a sender's deltas in order reproduces its
    full set exactly, and after any gap the next anchor restores it.  The
    resync check compares the anchored *set* against the reconstruction
    (digests are fingerprints for logging only: they can collide, and a
    Byzantine sender may forge one).  Deterministic for arbitrary —
    including Byzantine — gossip streams.
    """

    __slots__ = ("_by_sender",)

    def __init__(self) -> None:
        self._by_sender: dict[NodeId, set[NodeId]] = {}

    @property
    def senders(self) -> frozenset[NodeId]:
        return frozenset(self._by_sender)

    def full_set(self, sender: NodeId) -> frozenset[NodeId]:
        """The reconstructed echoed set of ``sender`` so far."""

        return frozenset(self._by_sender.get(sender, ()))

    def observe(self, sender: NodeId, gossip: CandidateGossip) -> None:
        state = self._by_sender.get(sender)
        if state is None:
            self._by_sender[sender] = state = set()
        if gossip.anchor is not None:
            # Resync only when we actually diverged; a correct stream
            # received without gaps always matches.  Exact set comparison —
            # never the digest, which can collide (or be forged).
            if (state | set(gossip.adds)) != set(gossip.anchor):
                state.clear()
                state.update(gossip.anchor)
        state.update(gossip.adds)


@dataclass(frozen=True)
class Opinion:
    """The coordinator's opinion broadcast at the end of its round."""

    value: Hashable


@dataclass(frozen=True)
class SelectionRecord:
    """Which coordinator a node selected in one selection round."""

    selection_index: int
    round_index: int
    coordinator: NodeId


@dataclass(frozen=True)
class RotorRoundOutcome:
    """The result of one selection round of the rotor-coordinator."""

    payloads: tuple[Payload, ...]
    selected: NodeId | None
    previous: NodeId | None
    accepted_opinion: Hashable | None
    opinion_received: bool
    terminated: bool


#: Memo key for the echo-support tally cached on each inbox.  Support comes
#: from the ``adds`` of :class:`CandidateGossip` payloads (one per correct
#: sender per round) plus any legacy per-candidate :class:`RotorEcho`
#: payloads; gossip anchors are deliberately *not* counted — they re-state
#: old echoes for resynchronisation, and counting them would let a replayed
#: anchor manufacture fresh support.  See
#: :func:`repro.core.tally.candidate_support`.
_ECHO_KEY = "rotor-echo-index"

#: Memo key for the init-announcement index cached on each inbox.
_INIT_KEY = "rotor-init-index"


class _SelectionLog:
    """``Sv`` and the selection history, shared by the cores that made the
    same selections.

    Immutable: a selection makes a new log (:meth:`extend`).  It is hashed
    by identity, so a memo key holding it costs O(1) however long the
    history grows; cores that select alike adopt the log one memoized
    selection built.
    """

    __slots__ = ("history", "selected")

    def __init__(
        self, history: tuple[SelectionRecord, ...], selected: frozenset[NodeId]
    ) -> None:
        self.history = history
        self.selected = selected

    def extend(self, record: SelectionRecord) -> "_SelectionLog":
        return _SelectionLog(
            self.history + (record,), self.selected | {record.coordinator}
        )


_EMPTY_LOG = _SelectionLog((), _NOBODY)


def _transition_key(
    step: Hashable,
    nv: int,
    candidates: frozenset[NodeId],
    echoed: frozenset[NodeId],
    phase: int,
    log: _SelectionLog,
    index: int,
) -> tuple:
    """The memo key of one core transition on an inbox.

    ``step`` names the transition (with its round index for a selection);
    the rest is every input that can differ between cores reading one
    inbox: ``nv``, ``Cv``, the echoed set, the emission phase, the
    selection log and the selection index.  The sets are interned and the
    log is hashed by identity, so building and probing the key is O(1).
    """

    return (step, nv, candidates, echoed, phase, log, index)


def _observed(
    support: dict[Hashable, int],
    nv: int,
    candidates: frozenset[NodeId],
    order: tuple[NodeId, ...],
    echoed: frozenset[NodeId],
    phase: int,
) -> tuple:
    """``observe``'s transition: ``(Cv', order', gossip, echoed', phase')``."""

    if candidates.issuperset(support):
        # Every echoed candidate is already in ``Cv``: nothing to relay.
        return candidates, order, None, echoed, phase
    relays: list[NodeId] = []
    accepted: list[NodeId] = []
    for candidate in sorted(support):
        if candidate in candidates:
            continue
        count = support[candidate]
        if meets_one_third(count, nv):
            relays.append(candidate)
        if meets_two_thirds(count, nv):
            accepted.append(candidate)
    if accepted:
        candidates = intern_payload(candidates.union(accepted))
        order = tuple(sorted((*order, *accepted)))
    # The round's relays travel as one delta-coded gossip payload; the
    # per-candidate support a receiver derives from it is identical to
    # one RotorEcho per relayed candidate.
    return (candidates, order, *_emit(echoed, phase, tuple(relays)))


def _selection(
    order: tuple[NodeId, ...], log: _SelectionLog, index: int, round_index: int
) -> tuple[NodeId, _SelectionLog, bool]:
    """``execute_selection``'s transition: ``(selected, log', terminated)``."""

    # Line 16: p ← Cv[r mod |Cv|].
    selected = order[index % len(order)]
    if selected in log.selected:
        # Lines 21–23: re-selection terminates the rotor.
        return selected, log, True
    record = SelectionRecord(
        selection_index=index, round_index=round_index, coordinator=selected
    )
    return selected, log.extend(record), False


class RotorCoordinatorCore:
    """The candidate-set and selection machinery, independent of scheduling.

    The caller is responsible for round structure: it must call
    :meth:`init_round_one` / :meth:`init_round_two` for the two
    initialization rounds, :meth:`observe` once per subsequent round (to
    keep the candidate set fresh and obtain the echo relays to broadcast)
    and :meth:`execute_selection` in every round that counts as a
    rotor-coordinator round (every round for Algorithm 2, one per phase for
    Algorithms 3 and 5).

    The candidate, echo and selection fields hold immutable objects that
    cores in equal states share (see the module docstring); a transition
    replaces them and never mutates them.
    """

    def __init__(self, node_id: NodeId) -> None:
        self._node_id = node_id
        self._known = KnownSenders()
        self._candidates = _NOBODY  # Cv, interned
        self._order: tuple[NodeId, ...] = ()  # Cv sorted by identifier
        self._echoed = _NOBODY  # every candidate gossiped so far, interned
        self._phase = 0  # gossip emissions modulo GOSSIP_ANCHOR_PERIOD
        self._log = _EMPTY_LOG  # Sv and the selection history
        self._index = 0  # the loop variable r of Algorithm 2
        self._last_selected: NodeId | None = None
        self._terminated = False

    def _key(self, step: Hashable) -> tuple:
        return _transition_key(
            step, self._known.count, self._candidates, self._echoed,
            self._phase, self._log, self._index,
        )

    # -- introspection ---------------------------------------------------------

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def candidates(self) -> tuple[NodeId, ...]:
        """The ordered candidate set ``Cv``."""

        return self._order

    @property
    def selected(self) -> frozenset[NodeId]:
        """The set ``Sv`` of coordinators selected so far."""

        return self._log.selected

    @property
    def selection_history(self) -> tuple[SelectionRecord, ...]:
        return self._log.history

    @property
    def last_selected(self) -> NodeId | None:
        return self._last_selected

    @property
    def terminated(self) -> bool:
        return self._terminated

    @property
    def nv(self) -> int:
        return self._known.count

    # -- initialization (the first two lines of Algorithm 2) ----------------------

    def init_round_one(self) -> list[Payload]:
        """Round 1: broadcast ``init`` (interned — one instance system-wide)."""

        return [intern_payload(RotorInit())]

    def init_round_two(self, inbox: Inbox) -> list[Payload]:
        """Round 2: gossip ``echo(p)`` for every ``p`` whose ``init`` arrived.

        The echoes for the whole init wave — O(n) candidates — travel as
        the ``adds`` of a single :class:`CandidateGossip` instead of one
        ``RotorEcho`` broadcast per candidate.  Every correct node emits
        the same gossip here, and cores reading one inbox encode it once.
        """

        self._known.observe(inbox)
        adds = init_senders(inbox, RotorInit, memo_key=_INIT_KEY)
        echoed, phase = self._echoed, self._phase
        gossip, self._echoed, self._phase = inbox.memo(
            self._key("rotor-init"), lambda ib: _emit(echoed, phase, adds)
        )
        return [] if gossip is None else [gossip]

    # -- per-round candidate maintenance (Algorithm 2, lines 7–15) ------------------

    def observe(self, inbox: Inbox) -> list[Payload]:
        """Update ``nv``/``Cv`` from this round's echoes; return echo relays.

        The candidate set is maintained exactly like reliable-broadcast
        acceptance (Lemma 6): an ``echo(p)`` relay is broadcast on an
        ``nv/3`` relative quorum, and ``p`` joins ``Cv`` on a ``2·nv/3``
        quorum.  Support is counted over distinct senders within the round.
        """

        self._known.observe(inbox)
        support = candidate_support(
            inbox, CandidateGossip, RotorEcho, memo_key=_ECHO_KEY
        )
        if not support:
            # No echoes this round — nothing can change ``Cv`` or warrant a
            # relay.  This is the steady state of every embedded engine
            # (echo traffic dies out after the init rounds).
            return []
        nv = self._known.count
        candidates, order = self._candidates, self._order
        echoed, phase = self._echoed, self._phase
        self._candidates, self._order, gossip, self._echoed, self._phase = inbox.memo(
            self._key("rotor-observe"),
            lambda ib: _observed(support, nv, candidates, order, echoed, phase),
        )
        return [] if gossip is None else [gossip]

    # -- selection rounds (Algorithm 2, lines 16–29) ---------------------------------

    def execute_selection(
        self,
        inbox: Inbox,
        opinion: Hashable,
        *,
        round_index: int,
    ) -> RotorRoundOutcome:
        """Run the selection part of one rotor-coordinator round.

        ``opinion`` is the node's current opinion ``ov`` — broadcast if the
        node selects itself.  The accepted opinion reported in the outcome
        is the ``opinion(x)`` message received *this round* from the
        coordinator selected in the *previous* selection round (Algorithm 2,
        lines 17–19).
        """

        if self._terminated:
            return RotorRoundOutcome(
                payloads=(),
                selected=None,
                previous=self._last_selected,
                accepted_opinion=None,
                opinion_received=False,
                terminated=True,
            )

        previous = self._last_selected
        accepted_opinion: Hashable | None = None
        opinion_received = False
        if previous is not None:
            for payload in inbox.payloads_from(previous):
                if isinstance(payload, Opinion):
                    accepted_opinion = payload.value
                    opinion_received = True
                    break

        payloads: tuple[Payload, ...] = ()
        selected: NodeId | None = None
        terminated = False
        if self._order:
            order, log, index = self._order, self._log, self._index
            selected, log, terminated = inbox.memo(
                self._key(("rotor-select", round_index)),
                lambda ib: _selection(order, log, index, round_index),
            )
            self._last_selected = selected
            self._log = log
            self._terminated = terminated
            if selected == self._node_id and not terminated:
                # Lines 25–28: the coordinator broadcasts its opinion.
                payloads = (Opinion(opinion),)
        if not terminated:
            self._index += 1
        return RotorRoundOutcome(
            payloads=payloads,
            selected=selected,
            previous=previous,
            accepted_opinion=accepted_opinion,
            opinion_received=opinion_received,
            terminated=terminated,
        )


class RotorCoordinatorProcess(Process):
    """Standalone Algorithm 2: one selection round per network round.

    ``opinion`` is the node's fixed opinion ``ov`` (in the consensus
    algorithms the opinion evolves; here it is a constant input, which is
    all experiment E2 needs to verify the good-round property).
    """

    def __init__(self, node_id: NodeId, *, opinion: Hashable = None) -> None:
        super().__init__(node_id)
        self._core = RotorCoordinatorCore(node_id)
        self._opinion = opinion if opinion is not None else node_id
        self._output: Hashable | None = None

    # -- results -------------------------------------------------------------

    @property
    def core(self) -> RotorCoordinatorCore:
        return self._core

    @property
    def opinion(self) -> Hashable:
        return self._opinion

    @property
    def selection_history(self) -> tuple[SelectionRecord, ...]:
        return self._core.selection_history

    @property
    def output(self) -> Hashable | None:
        """The last coordinator opinion accepted before termination."""

        return self._output

    @property
    def decided(self) -> bool:
        return self.halted

    # -- state machine ----------------------------------------------------------

    def step(self, view: RoundView) -> Sequence[Outgoing]:
        if view.round_index == 1:
            return [Broadcast(p) for p in self._core.init_round_one()]
        if view.round_index == 2:
            return [Broadcast(p) for p in self._core.init_round_two(view.inbox)]

        # Rounds 3 onwards: lines 5–30 of Algorithm 2, one iteration per round.
        payloads = self._core.observe(view.inbox)
        outcome = self._core.execute_selection(
            view.inbox, self._opinion, round_index=view.round_index
        )
        if outcome.opinion_received and outcome.previous is not None:
            self._output = outcome.accepted_opinion
        if outcome.terminated:
            self.halt()
            return ()
        payloads = list(payloads) + list(outcome.payloads)
        return [Broadcast(p) for p in payloads]
