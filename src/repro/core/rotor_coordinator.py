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
from .quorums import (
    meets_one_third,
    meets_two_thirds,
    one_third_mask,
    two_thirds_mask,
)
from .tally import candidate_support, candidate_support_arrays, init_senders

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


class GossipEncoder:
    """Delta-codes a node's outgoing candidate echoes.

    Tracks the full set of candidates echoed so far; :meth:`emit` turns one
    round's newly-echoed candidates into a single interned
    :class:`CandidateGossip`, attaching the full-set anchor every
    :data:`GOSSIP_ANCHOR_PERIOD`-th emission.
    """

    __slots__ = ("_echoed", "_emitted")

    def __init__(self) -> None:
        self._echoed: set[NodeId] = set()
        self._emitted = 0

    @property
    def echoed(self) -> frozenset[NodeId]:
        """Every candidate this encoder has gossiped about so far."""

        return frozenset(self._echoed)

    def emit(self, adds: Iterable[NodeId]) -> CandidateGossip | None:
        """Encode one round's echoes; ``None`` when there is nothing to say."""

        adds = tuple(adds)
        if not adds:
            return None
        self._echoed.update(adds)
        self._emitted += 1
        anchor = None
        if self._emitted % GOSSIP_ANCHOR_PERIOD == 0:
            anchor = tuple(sorted(self._echoed))
        return intern_payload(CandidateGossip(adds=adds, anchor=anchor))


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


class RotorCoordinatorCore:
    """The candidate-set and selection machinery, independent of scheduling.

    The caller is responsible for round structure: it must call
    :meth:`init_round_one` / :meth:`init_round_two` for the two
    initialization rounds, :meth:`observe` once per subsequent round (to
    keep the candidate set fresh and obtain the echo relays to broadcast)
    and :meth:`execute_selection` in every round that counts as a
    rotor-coordinator round (every round for Algorithm 2, one per phase for
    Algorithms 3 and 5).
    """

    def __init__(self, node_id: NodeId) -> None:
        self._node_id = node_id
        self._known = KnownSenders()
        self._candidates: list[NodeId] = []  # Cv, kept sorted by identifier
        self._candidate_set: set[NodeId] = set()  # mirror for O(1) lookups
        self._selected: set[NodeId] = set()  # Sv
        self._selection_history: list[SelectionRecord] = []
        self._selection_round = 0  # the loop variable r of Algorithm 2
        self._last_selected: NodeId | None = None
        self._terminated = False
        self._gossip = GossipEncoder()  # delta-codes outgoing echoes

    # -- introspection ---------------------------------------------------------

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def candidates(self) -> tuple[NodeId, ...]:
        """The ordered candidate set ``Cv``."""

        return tuple(self._candidates)

    @property
    def selected(self) -> frozenset[NodeId]:
        """The set ``Sv`` of coordinators selected so far."""

        return frozenset(self._selected)

    @property
    def selection_history(self) -> tuple[SelectionRecord, ...]:
        return tuple(self._selection_history)

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
        the same gossip here, so interning collapses the round's dominant
        payload to one canonical instance with one cached digest.
        """

        self._known.observe(inbox)
        gossip = self._gossip.emit(init_senders(inbox, RotorInit, memo_key=_INIT_KEY))
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
        nv = self._known.count
        support = candidate_support(
            inbox, CandidateGossip, RotorEcho, memo_key=_ECHO_KEY
        )
        if not support:
            # No echoes this round — nothing can change ``Cv`` or warrant a
            # relay.  This is the steady state of every embedded engine
            # (echo traffic dies out after the init rounds), and with the
            # shared tally it makes candidate maintenance O(1) per round.
            return []

        candidate_set = self._candidate_set
        if candidate_set.issuperset(support):
            # Every echoed candidate is already in ``Cv`` — the per-candidate
            # loop would skip them all and emit nothing.
            return []

        relays: list[NodeId] = []
        accepted: list[NodeId] = []
        if not candidate_set:
            # The init echo wave: O(n) candidates arrive at once and none
            # can be skipped, so threshold the whole sorted count vector in
            # one pair of numpy comparisons instead of per-candidate calls.
            candidates, counts = candidate_support_arrays(
                inbox, CandidateGossip, RotorEcho, memo_key=_ECHO_KEY
            )
            relay_mask = one_third_mask(counts, nv).tolist()
            accept_mask = two_thirds_mask(counts, nv).tolist()
            relays = [c for c, ok in zip(candidates, relay_mask) if ok]
            accepted = [c for c, ok in zip(candidates, accept_mask) if ok]
        else:
            for candidate in sorted(support):
                if candidate in candidate_set:
                    continue
                count = support[candidate]
                if meets_one_third(count, nv):
                    relays.append(candidate)
                if meets_two_thirds(count, nv):
                    accepted.append(candidate)
        if accepted:
            # One batch insert + sort per round instead of a sort per
            # candidate (the echo round delivers O(n) acceptances at once).
            candidate_set.update(accepted)
            self._candidates.extend(accepted)
            self._candidates.sort()
        # The round's relays travel as one delta-coded gossip payload; the
        # per-candidate support a receiver derives from it is identical to
        # one RotorEcho per relayed candidate.
        gossip = self._gossip.emit(relays)
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

        payloads: list[Payload] = []
        selected: NodeId | None = None
        if self._candidates:
            # Line 16: p ← Cv[r mod |Cv|].
            selected = self._candidates[self._selection_round % len(self._candidates)]
            if selected in self._selected:
                # Line 21–23: re-selection terminates the rotor.
                self._terminated = True
                self._last_selected = selected
                return RotorRoundOutcome(
                    payloads=tuple(payloads),
                    selected=selected,
                    previous=previous,
                    accepted_opinion=accepted_opinion,
                    opinion_received=opinion_received,
                    terminated=True,
                )
            self._selected.add(selected)
            self._selection_history.append(
                SelectionRecord(
                    selection_index=self._selection_round,
                    round_index=round_index,
                    coordinator=selected,
                )
            )
            self._last_selected = selected
            if selected == self._node_id:
                # Lines 25–28: the coordinator broadcasts its opinion.
                payloads.append(Opinion(opinion))

        self._selection_round += 1
        return RotorRoundOutcome(
            payloads=tuple(payloads),
            selected=selected,
            previous=previous,
            accepted_opinion=accepted_opinion,
            opinion_received=opinion_received,
            terminated=False,
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
