"""Algorithm 5 — EarlyConsensus(id) and ParallelConsensus (Section X).

Parallel consensus generalises consensus to a *set* of named decisions:
every correct node ``v`` holds input pairs ``(id, x)`` and the correct
nodes must output a common set of pairs such that

* **Validity** — a pair ``(id, x)`` with ``x ≠ ⊥`` that is an input of
  every correct node is output by every correct node;
* **Agreement** — if one correct node outputs ``(id, x)``, all do;
* **Termination** — every correct node outputs its set after finitely many
  rounds.

The subtlety is that the correct nodes do not initially agree on *which*
instances exist: an identifier may be input at only some correct nodes, or
at none (injected by Byzantine nodes).  EarlyConsensus(id) handles this by
running the consensus phase structure per identifier with explicit
``nopreference``/``nostrongpreference`` messages and default ``⊥``
substitution for nodes that have not spoken for that identifier:

* a message type first heard in the **second or later phase** is discarded
  (no new instance is started);
* during the **first phase**, nodes that counted towards ``nv`` but did not
  send a message of the counted type (nor the corresponding explicit
  ``no…preference`` statement) are counted as having sent that type with
  value ``⊥``;
* in later phases, only nodes that have stayed silent for the entire loop
  are substituted for, with the local node's own most recent message of
  that type (the same — provably safe — narrowing used in Algorithm 3;
  a blanket per-round substitution would let a split-vote adversary create
  conflicting quorums).

All instances share one rotor-coordinator (initialised in the two setup
rounds, one selection per phase); the phase coordinator broadcasts one
per-identifier opinion for every instance it tracks.

The per-node step
-----------------
Total ordering steps about nine live engines per node per round, and in a
synchronous round every correct node with the same membership view holds
the same per-identifier state for an instance.  So that state is shared:

* **An immutable table.**  An engine's per-identifier state is one
  :class:`_Table`: a tuple of frozen :class:`_InstanceState` records in
  ``repr`` order of the identifiers, the input pairs not started yet, the
  phase, and how many states are undecided and lingering.  A transition
  builds a new table and never mutates one.  An engine starts from
  :func:`initial_table`, interned, so engines with equal inputs hold one
  table object; total ordering builds it once per inbox.
* **One transition per inbox.**  Each phase round (1–5) and the linger
  bookkeeping after it is one pure transition, :func:`_advance`, stored
  with :meth:`~repro.sim.messages.Inbox.memo` on the engine's restricted
  inbox under :func:`_table_key`.  The key holds the table and every input
  that can differ between engines reading that inbox: the frozen known and
  loop-sender views, whether the node is in each, the rows the node
  delivered, which fix the slots (identifier and message type) it spoke
  for, and, in phase rounds 4 and 5, whether it is the phase's coordinator
  and who that coordinator is.  Engines in
  equal states then run each transition once and adopt one result; a
  per-destination or delayed round hands each engine its own inbox, and
  the same transition runs unshared.  The rotor core is memoized the same
  way (:mod:`repro.core.rotor_coordinator`).
* **Constants fixed at freeze.**  When ``nv`` freezes (local round 3) the
  engine fixes its frozen view, the sender filter ``known ∩ allowed``
  (interned and built once per inbox, so the memo key of the shared
  :meth:`~repro.sim.messages.Inbox.restricted` view is an identity check)
  and whether the node is in its own view.
* **One-pass pick.**  Each support is reduced by one
  :func:`~repro.core.quorums.pick_supported` pass.  Phase rounds 3 and 4
  need both an ``nv/3`` and a ``2nv/3`` pick; the latter is the former's
  winner when its count meets ``2nv/3``, and otherwise there is none.
  Supports are the shared scan-index counts themselves, copied only when
  a ``⊥`` or own-message substitution adds to them.  Phase round 4 keeps
  its strongprefer pick in the state for round 5.
* **Coordinator-opinion index.**  Phase round 5 reads the coordinator's
  opinion for each instance whose ``strongprefer`` support stayed below
  ``nv/3`` from an ``{instance: value}`` index of the coordinator's first
  ``PCOpinion`` per instance, built once per inbox and coordinator
  (:func:`_opinion_index`).

The module exposes:

* :class:`ParallelConsensusEngine` — the embeddable state machine (also
  used per-round by the dynamic total-ordering protocol of Section XI);
* :class:`ParallelConsensusProcess` — a standalone process for experiment
  E7 and the examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Hashable, Mapping, NamedTuple, Sequence

from ..sim.messages import (
    Broadcast,
    Inbox,
    NodeId,
    Outgoing,
    Payload,
    intern_payload,
)
from ..sim.node import KnownSenders, Process, RoundView
from .consensus import INIT_ROUNDS, LINGER_PHASES, PHASE_LENGTH
from .quorums import one_third, pick_supported, two_thirds
from .rotor_coordinator import RotorCoordinatorCore
from .tally import NO_VALUE, scan_index

__all__ = [
    "BOTTOM",
    "PCInput",
    "PCPrefer",
    "PCStrongPrefer",
    "PCNoPreference",
    "PCNoStrongPreference",
    "PCOpinion",
    "ParallelConsensusEngine",
    "ParallelConsensusProcess",
]


class _Bottom:
    """The ``⊥`` placeholder (a dedicated singleton, distinct from ``None``)."""

    _instance: "_Bottom | None" = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __hash__(self) -> int:
        return hash("__bottom__")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Bottom)


#: The distinguished "no opinion" value of Section X.
BOTTOM = _Bottom()


@dataclass(frozen=True)
class PCInput:
    """``id:input(x)``."""

    instance: Hashable
    value: Hashable


@dataclass(frozen=True)
class PCPrefer:
    """``id:prefer(x)``."""

    instance: Hashable
    value: Hashable


@dataclass(frozen=True)
class PCStrongPrefer:
    """``id:strongprefer(x)``."""

    instance: Hashable
    value: Hashable


@dataclass(frozen=True)
class PCNoPreference:
    """``id:nopreference`` — "I saw no two-thirds input quorum for this id"."""

    instance: Hashable


@dataclass(frozen=True)
class PCNoStrongPreference:
    """``id:nostrongpreference`` — "I saw no two-thirds prefer quorum"."""

    instance: Hashable


@dataclass(frozen=True)
class PCOpinion:
    """The phase coordinator's per-identifier opinion."""

    instance: Hashable
    value: Hashable


_TYPE_INPUT = "input"
_TYPE_PREFER = "prefer"
_TYPE_STRONG = "strongprefer"


#: ``strong`` without a pick: one object, so that a transition that picks
#: nothing can keep the state it was given.
_NO_PICK: tuple[None, None] = (None, None)


class _InstanceState(NamedTuple):
    """Per-identifier EarlyConsensus state: a frozen record, which a
    transition replaces and never mutates."""

    instance: Hashable
    opinion: Hashable
    #: Creation order among the engine's instances (the ``outputs`` order).
    rank: int
    decided: bool = False
    output: Hashable | None = None
    #: The node's most recent ``input``, ``prefer`` and ``strongprefer``
    #: value for the instance (``None`` before the first), which the
    #: substitution rule reads.
    sent: tuple[Hashable, Hashable, Hashable] = (None, None, None)
    #: Phase round 4's ``(nv/3, 2nv/3)`` picks over the strongprefer
    #: support, which phase round 5 reads.
    strong: tuple[Hashable, Hashable] = _NO_PICK
    #: Rounds left to keep speaking after deciding (termination detection).
    linger_rounds: int | None = None


def _instance_repr(state: _InstanceState) -> str:
    return repr(state.instance)


def _rank(state: _InstanceState) -> int:
    return state.rank


class _Table:
    """An engine's per-identifier state, immutable and shared.

    ``states`` holds one :class:`_InstanceState` per started identifier, in
    ``repr`` order of the identifiers (ties in creation order); ``pending``
    the ``(identifier, opinion)`` input pairs not started yet; ``phase`` the
    current phase; ``undecided`` and ``lingering`` how many states are
    undecided and inside their linger window.  Equality and the hash, which
    is computed once, cover ``states``, ``pending`` and ``phase``; the
    counts follow from them.
    """

    __slots__ = ("states", "pending", "phase", "undecided", "lingering", "_hash")

    def __init__(
        self,
        states: tuple[_InstanceState, ...],
        pending: tuple[tuple[Hashable, Hashable], ...],
        phase: int,
        undecided: int,
        lingering: int,
    ) -> None:
        self.states = states
        self.pending = pending
        self.phase = phase
        self.undecided = undecided
        self.lingering = lingering
        self._hash: int | None = None

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._hash = hash((self.states, self.pending, self.phase))
        return cached

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, _Table):
            return NotImplemented
        return (self.phase, self.pending, self.states) == (
            other.phase, other.pending, other.states
        )


def initial_table(input_pairs: Mapping[Hashable, Hashable]) -> _Table:
    """The interned table of an engine with ``input_pairs`` that has not
    stepped yet (a ``None`` input is ``⊥``).

    Input pairs stay pending until first touch: a state is started by the
    first message about the identifier or by the first phase round, where
    the input must speak.  The total-order protocol starts one engine per
    round with O(n) input pairs, so engines that die before their first
    phase round (run tail, leaving nodes) never start a state at all.
    """

    pending = tuple(
        (instance, BOTTOM if value is None else value)
        for instance, value in input_pairs.items()
    )
    return intern_payload(_Table((), pending, 0, 0, 0))


#: Memo key under which the ``(instance, type_key)`` support index (see
#: :func:`_classify` and :func:`repro.core.tally.scan_index`) is cached on
#: the inbox.
_SCAN_KEY = "pc-scan-index"

#: Memo key of the ``{sender: payload-table indexes}`` index.
_ROWS_KEY = "pc-delivered-rows"

#: Memo key (with the coordinator's id) of the coordinator-opinion index.
_OPINION_KEY = "pc-coordinator-opinions"

#: Spoken-set default for a slot nobody spoke for, and the view of an
#: engine whose ``nv`` never froze.
_NOBODY: frozenset[NodeId] = frozenset()

#: Lookup default of the coordinator-opinion index.
_NO_OPINION = object()


def _classify(payload: Payload) -> tuple[tuple[Hashable, str], Hashable] | None:
    """Map one payload to its ``(instance, type)`` slot for the scan index.

    The old per-instance ``_support`` rescanned the full inbox for every
    tracked identifier — O(identifiers × inbox) per round, the dominant
    protocol cost once the total-order workload multiplexes hundreds of
    identifiers.  :func:`repro.core.tally.scan_index` runs this classifier
    once per round over the (possibly shared, possibly columnar) inbox and
    builds both the per-value distinct-sender counts and the "has spoken
    for this type" sets; ``_support`` becomes a dictionary lookup.  The
    explicit ``no…preference`` statements make the sender non-missing for
    the corresponding type without contributing a countable value
    (:data:`repro.core.tally.NO_VALUE`).
    """

    cls = type(payload)
    if cls is PCInput:
        return (payload.instance, _TYPE_INPUT), payload.value
    if cls is PCPrefer:
        return (payload.instance, _TYPE_PREFER), payload.value
    if cls is PCStrongPrefer:
        return (payload.instance, _TYPE_STRONG), payload.value
    if cls is PCNoPreference:
        return (payload.instance, _TYPE_PREFER), NO_VALUE
    if cls is PCNoStrongPreference:
        return (payload.instance, _TYPE_STRONG), NO_VALUE
    return None


def _delivered_rows(inbox: Inbox) -> dict[NodeId, tuple[int, ...]]:
    """``{sender: the payload-table indexes of its rows}``.

    Senders that delivered the same payloads have equal tuples, and a
    sender's tuple fixes the slots it spoke for.  Rows are grouped by
    sender, so each sender's indexes are one run of the columns.
    """

    senders, rows, _table = inbox.columns()
    delivered: dict[NodeId, tuple[int, ...]] = {}
    start = 0
    for sender, run in groupby(senders):
        end = start + len(tuple(run))
        delivered[sender] = tuple(rows[start:end])
        start = end
    return delivered


def _slots(inbox: Inbox, rows: tuple[int, ...] | None) -> set[tuple[Hashable, str]]:
    """The slots of the payloads at ``rows`` of ``inbox``'s table."""

    table = inbox.columns()[2]
    slots = set()
    for index in rows or ():
        tag = _classify(table[index])
        if tag is not None:
            slots.add(tag[0])
    return slots


def _opinion_index(inbox: Inbox, coordinator: NodeId) -> dict[Hashable, Hashable]:
    """``{instance: value}`` of ``coordinator``'s first ``PCOpinion`` per
    instance, in the order it delivered them.

    Phase round 5 looked the opinion up by scanning the coordinator's
    payloads once per undecided instance; the index is built once per
    (inbox, coordinator) and shared by every node that reads it.  An
    unhashable ``instance`` is skipped: it cannot equal the hashable
    identifier of any tracked instance, so the scan never matched it.
    """

    index: dict[Hashable, Hashable] = {}
    for payload in inbox.payloads_from(coordinator):
        if isinstance(payload, PCOpinion):
            try:
                index.setdefault(payload.instance, payload.value)
            except TypeError:
                continue
    return index


def _table_key(
    phase_round: int,
    table: _Table,
    view: frozenset[NodeId],
    loop: frozenset[NodeId],
    in_view: bool,
    in_loop: bool,
    rows: tuple[int, ...] | None,
    coordinator: Hashable,
) -> tuple:
    """The memo key of one table transition on an inbox.

    ``phase_round`` names the transition; the rest is every input that can
    differ between engines reading one inbox: the table, the frozen known
    and loop-sender views, whether the node is in each, the rows the node
    delivered (:func:`_delivered_rows`, which fix the slots it spoke for;
    phase rounds 2–4 read them), and ``coordinator`` — in phase round 4
    whether the node is the selected coordinator, in phase round 5 who the
    coordinator is.  The table's hash is computed once and the views are
    interned, so building and probing the key is O(1) but for the rows.
    """

    return ("pc-table", phase_round, table, view, loop, in_view, in_loop, rows, coordinator)


def _started(
    states: tuple[_InstanceState, ...],
    pending: tuple[tuple[Hashable, Hashable], ...],
    touched: list[Hashable],
    phase: int,
) -> tuple[tuple[_InstanceState, ...], tuple[tuple[Hashable, Hashable], ...]]:
    """``(states', pending')`` once every identifier in ``touched`` has a
    state: a pending input starts with its opinion, and any other
    identifier starts with ``⊥``, in the first phase only (rule 1)."""

    if not pending and phase > 1:
        return states, pending
    started = {state.instance for state in states}
    waiting = dict(pending)
    created: list[_InstanceState] = []
    rank = len(states)
    for instance in touched:
        if instance in started:
            continue
        opinion = waiting.pop(instance, None) if waiting else None
        if opinion is None:
            if phase > 1:
                continue
            opinion = BOTTOM
        created.append(_InstanceState(instance, opinion, rank))
        rank += 1
        started.add(instance)
    if not created:
        return states, pending
    # A stable sort of the repr-ordered states followed by the new ones in
    # creation order keeps ties in creation order.
    states = tuple(sorted((*states, *created), key=_instance_repr))
    if len(waiting) != len(pending):
        pending = tuple(waiting.items())
    return states, pending


def _advance(
    table: _Table,
    phase_round: int,
    inbox: Inbox,
    view: frozenset[NodeId],
    loop: frozenset[NodeId],
    in_view: bool,
    in_loop: bool,
    rows: tuple[int, ...] | None,
    coordinator: Hashable,
) -> tuple[_Table, tuple[Payload, ...]]:
    """One phase round of ``table`` on ``inbox``, then the linger
    bookkeeping: ``(table', payloads)``.  The arguments after ``inbox`` are
    those of :func:`_table_key`."""

    support, spoken = scan_index(inbox, _classify, memo_key=_SCAN_KEY)
    phase = table.phase + 1 if phase_round == 1 else table.phase
    states, pending = table.states, table.pending
    if phase_round == 1:
        # First input touch: the input pairs must speak this round, so
        # every still-pending identifier starts now.
        if pending:
            states, pending = _started(states, pending, [i for i, _ in pending], phase)
    elif phase_round != 4:
        # New identifiers first heard via id:input (round 2), id:prefer
        # (round 3) or id:strongprefer (round 5) start an instance now.
        type_key = (_TYPE_INPUT, _TYPE_PREFER, None, _TYPE_STRONG)[phase_round - 2]
        if pending or phase <= 1:
            touched = [instance for instance, key in support if key == type_key]
            states, pending = _started(states, pending, touched, phase)

    nv = len(view)
    one, two = one_third(nv), two_thirds(nv)
    # Built on first use: ``view − loop``, and the slots the node spoke for
    # (those of its own rows).
    quiet: frozenset[NodeId] | None = None
    spoke: set[tuple[Hashable, str]] | None = None

    def supported(instance: Hashable, type_key: str, own: Hashable) -> dict[Hashable, int]:
        """Per-value support for one slot, applying the ⊥/own-message
        substitution rules to the round's scan index.  The counts are the
        shared index's own unless a substitution adds to them."""

        nonlocal quiet, spoke
        key = (instance, type_key)
        counts = support.get(key) or {}
        senders_of_type = spoken.get(key, _NOBODY)
        # ``missing`` is ``view − senders_of_type − {self}``.  The inbox is
        # filtered to the view, so ``senders_of_type ⊆ view`` and the size
        # of the missing set is arithmetic on the slots the node spoke for.
        n_missing = nv - len(senders_of_type)
        if n_missing <= 0:
            return counts
        self_missing = False
        if in_view:
            if spoke is None:
                spoke = _slots(inbox, rows)
            self_missing = key not in spoke
            n_missing -= self_missing
        if n_missing > 0:
            if phase == 1:
                # First phase: missing senders default to ⊥ (rule 2).
                counts = dict(counts)
                counts[BOTTOM] = counts.get(BOTTOM, 0) + n_missing
            elif own is not None:
                # Later phases: substitute the node's own most recent
                # message of this type, but only for nodes that have never
                # spoken inside the loop (rule 3, narrowed as in
                # Algorithm 3).
                if quiet is None:
                    quiet = view - loop
                silent = len(quiet - senders_of_type) - (self_missing and not in_loop)
                if silent:
                    counts = dict(counts)
                    counts[own] = counts.get(own, 0) + silent
        return counts

    payloads: list[Payload] = []
    emit = payloads.append
    opinions: dict[Hashable, Hashable] | None = None
    changed = phase != table.phase or states is not table.states
    undecided = lingering = 0
    advanced: list[_InstanceState] = []
    for state in states:
        instance, opinion, rank, decided, output, sent, strong, linger = state
        if decided and linger < 0:
            # An instance stops speaking once its linger budget is exhausted.
            advanced.append(state)
            continue
        if phase_round == 1:
            if opinion != BOTTOM and opinion is not None:
                emit(PCInput(instance, opinion))
                sent = (opinion, sent[1], sent[2])
        elif phase_round == 2:
            winner, _count = pick_supported(
                supported(instance, _TYPE_INPUT, sent[0]), two
            )
            if winner is not None:
                emit(PCPrefer(instance, winner))
                sent = (sent[0], winner, sent[2])
            else:
                emit(PCNoPreference(instance))
        elif phase_round == 3:
            # One pass: the 2nv/3 pick is the nv/3 winner if it gets there.
            adopt, count = pick_supported(
                supported(instance, _TYPE_PREFER, sent[1]), one
            )
            if adopt is not None:
                opinion = adopt
            if adopt is not None and count >= two:
                emit(PCStrongPrefer(instance, adopt))
                sent = (sent[0], sent[1], adopt)
            else:
                emit(PCNoStrongPreference(instance))
        elif phase_round == 4:
            weak, count = pick_supported(
                supported(instance, _TYPE_STRONG, sent[2]), one
            )
            strong = _NO_PICK if weak is None else (weak, weak if count >= two else None)
            if coordinator:
                # The phase's coordinator publishes a per-instance opinion.
                emit(PCOpinion(instance, opinion))
        else:
            weak, decide = strong
            strong = _NO_PICK
            if weak is None and coordinator is not None:
                if opinions is None:
                    opinions = inbox.memo(
                        (_OPINION_KEY, coordinator),
                        lambda ib: _opinion_index(ib, coordinator),
                    )
                adopted = opinions.get(instance, _NO_OPINION)
                if adopted is not _NO_OPINION:
                    opinion = adopted
            if decide is not None and not decided:
                decided = True
                opinion = decide
                output = None if decide == BOTTOM else decide
                linger = LINGER_PHASES * PHASE_LENGTH
        # Linger bookkeeping: a decided instance speaks while its window
        # lasts; an exhausted one never reactivates.
        if decided:
            linger -= 1
            if linger >= 0:
                lingering += 1
        else:
            undecided += 1
            if opinion is state.opinion and sent is state.sent and strong is state.strong:
                advanced.append(state)
                continue
        advanced.append(
            _InstanceState(instance, opinion, rank, decided, output, sent, strong, linger)
        )
        changed = True
    if not changed:
        return table, tuple(payloads)
    return _Table(tuple(advanced), pending, phase, undecided, lingering), tuple(payloads)


class ParallelConsensusEngine:
    """The EarlyConsensus/ParallelConsensus state machine.

    The engine is deliberately *not* a :class:`~repro.sim.node.Process`: the
    dynamic total-ordering protocol embeds one engine per round-instance and
    multiplexes them over the same network rounds.  ``step`` takes the
    engine-local round number (1-based) and the inbox restricted to this
    engine's messages, and returns the payloads to broadcast.

    Parameters
    ----------
    node_id:
        The local node's identifier.
    input_pairs:
        The ``(id, x)`` pairs input at this node, or the table
        :func:`initial_table` made of them (engines with equal inputs can
        then share it from the start).
    allowed_senders:
        When given (the dynamic-network case), only messages from these
        identifiers are considered and ``nv`` is bounded by this set.
    """

    def __init__(
        self,
        node_id: NodeId,
        input_pairs: Mapping[Hashable, Hashable] | _Table | None = None,
        *,
        allowed_senders: frozenset[NodeId] | None = None,
    ) -> None:
        self._node_id = node_id
        self._allowed = allowed_senders
        self._known = KnownSenders()
        # Fixed when ``nv`` freezes (local round 3), read by every later
        # step: the frozen view (interned), the sender filter
        # ``known ∩ allowed`` (interned, so the shared restriction's memo
        # key is an identity check) and whether this node is in its view.
        # An engine first stepped past round 3 never freezes: its view
        # stays empty and it filters by ``allowed`` alone.
        self._view: frozenset[NodeId] = _NOBODY
        self._sender_filter = allowed_senders
        self._in_view = False
        self._rotor = RotorCoordinatorCore(node_id)
        # The known senders heard inside the while-loop: a KnownSenders
        # view, memoized on the shared inbox and interned like ``nv``'s.
        self._loop = KnownSenders()
        if not isinstance(input_pairs, _Table):
            input_pairs = initial_table(input_pairs or {})
        self._table = input_pairs

    # -- introspection ------------------------------------------------------------

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def nv(self) -> int:
        return self._known.count

    @property
    def phase(self) -> int:
        return self._table.phase

    @property
    def instances(self) -> tuple[Hashable, ...]:
        table = self._table
        if table.pending:
            merged = {state.instance for state in sorted(table.states, key=_rank)}
            merged.update(instance for instance, _ in table.pending)
            return tuple(sorted(merged, key=repr))
        return tuple(state.instance for state in table.states)

    @property
    def rotor(self) -> RotorCoordinatorCore:
        return self._rotor

    def opinion(self, instance: Hashable) -> Hashable | None:
        for state in self._table.states:
            if state.instance == instance:
                return state.opinion
        return dict(self._table.pending).get(instance)

    @property
    def all_decided(self) -> bool:
        """True when every tracked instance has decided (vacuously true for
        a node tracking no instances once the first phase has passed)."""

        table = self._table
        if table.pending:
            return False
        if not table.states:
            return table.phase >= 2
        return table.undecided == 0

    @property
    def idle(self) -> bool:
        """True when no instance will speak again on its own: everything is
        decided and every linger window has closed.  An idle engine emits
        payloads only in reaction to incoming messages (rotor echo relays),
        which lets the total-order protocol stop stepping it entirely."""

        return self.all_decided and not self._table.lingering

    @property
    def outputs(self) -> dict[Hashable, Hashable]:
        """The decided non-``⊥`` pairs (the parallel-consensus output set)."""

        return {
            state.instance: state.output
            for state in sorted(self._table.states, key=_rank)
            if state.decided and state.output is not None
        }

    # -- the round state machine ------------------------------------------------------

    def _freeze(self, inbox: Inbox) -> None:
        """Freeze ``nv`` and fix the constants every later step reads."""

        known = self._known
        known.freeze()
        self._view = view = known.ids
        allowed = self._allowed
        if allowed is None:
            self._sender_filter = view
        else:
            self._sender_filter = inbox.memo(
                ("pc-sender-filter", view, allowed),
                lambda ib: intern_payload(view & allowed),
            )
        self._in_view = self._node_id in view

    def step(self, local_round: int, inbox: Inbox) -> list[Payload]:
        """Advance one round; return the payloads to broadcast."""

        if local_round == 1:
            self._known.observe(inbox)
            return list(self._rotor.init_round_one())
        if local_round == 2:
            self._known.observe(inbox)
            return list(self._rotor.init_round_two(inbox))
        if local_round == 3:
            self._known.observe(inbox)
            self._freeze(inbox)

        # Restriction is memoized on the (possibly shared) inbox keyed by
        # the sender filter, so nodes with the same membership view share
        # one filtered inbox — and the scan index and table transitions
        # memoized on it — per round.
        if self._sender_filter is not None:
            inbox = inbox.restricted(self._sender_filter)
        view, loop = self._view, self._loop
        if local_round > 3 and loop.count < len(view):
            # Once every known sender has spoken inside the loop the view
            # can never grow again (the inbox is filtered to known senders).
            loop.observe(inbox)
        relays = self._rotor.observe(inbox)
        phase_round = (local_round - INIT_ROUNDS - 1) % PHASE_LENGTH + 1
        coordinator: Hashable = None
        if phase_round == 4:
            # One shared rotor-coordinator selection per phase; the
            # selected coordinator publishes a per-instance opinion.
            outcome = self._rotor.execute_selection(inbox, None, round_index=local_round)
            coordinator = outcome.selected == self._node_id
        elif phase_round == 5:
            coordinator = self._rotor.last_selected
        node, table, loop_ids = self._node_id, self._table, loop.ids
        in_view, in_loop = self._in_view, node in loop_ids
        rows = None
        if 2 <= phase_round <= 4:
            rows = inbox.memo(_ROWS_KEY, _delivered_rows).get(node)
        self._table, payloads = inbox.memo(
            _table_key(
                phase_round, table, view, loop_ids, in_view, in_loop, rows, coordinator
            ),
            lambda ib: _advance(
                table, phase_round, ib, view, loop_ids, in_view, in_loop, rows,
                coordinator,
            ),
        )
        return [*relays, *payloads]


class ParallelConsensusProcess(Process):
    """Standalone parallel consensus (experiment E7, examples)."""

    def __init__(
        self,
        node_id: NodeId,
        *,
        input_pairs: Mapping[Hashable, Hashable],
        max_phases: int = 12,
    ) -> None:
        super().__init__(node_id)
        self._engine = ParallelConsensusEngine(node_id, dict(input_pairs))
        self._max_phases = max_phases
        self._output: dict[Hashable, Hashable] | None = None

    @property
    def engine(self) -> ParallelConsensusEngine:
        return self._engine

    @property
    def output(self) -> dict[Hashable, Hashable] | None:
        return self._output

    @property
    def decided(self) -> bool:
        return self._output is not None

    def step(self, view: RoundView) -> Sequence[Outgoing]:
        payloads = self._engine.step(view.round_index, view.inbox)
        if self._output is None and self._engine.all_decided and self._engine.phase >= 1:
            self._output = dict(self._engine.outputs)
        if self._engine.phase > self._max_phases:
            self.halt()
            return ()
        return [Broadcast(p) for p in payloads]
