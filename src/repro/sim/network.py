"""The synchronous round-based network engine.

This module implements the system model of Section IV of the paper (the
*id-only model*):

* ``n`` nodes with unique, not necessarily consecutive identifiers;
* computation proceeds in lock-step rounds — messages sent in round ``r``
  are consumed in round ``r + 1`` (other delay models are available for the
  Section IX impossibility experiments);
* a node can broadcast to everyone or reply to a node it has heard from;
* sender identifiers on the wire are truthful (no spoofing on the direct
  channel), but Byzantine nodes may put arbitrary claims inside payloads;
* duplicate messages from the same node within a round are discarded.

The engine is intentionally single-threaded and deterministic: given the
same processes, adversary strategies, delay model and seed, a run produces
exactly the same trace.  Determinism is what lets the experiment harness
treat every (configuration, seed) pair as a reproducible data point.

Delivery
--------
Messages in flight are filed by delivery round
(``dict[deliver_round, list[item]]``), so each round pops exactly the
items that are due.  An item is a per-action batch ``(sender, payload,
destinations)``, or, for a node whose action list carries a unicast, a
``(sender, plan)`` pair: the list compiled once per list object per round
into a :class:`_Plan` of its broadcast and unicast entries.  Colluding
Byzantine nodes that share one ``act`` call hand the network one action
tuple (:meth:`repro.adversary.base.ByzantineProcess.step`), so ``f``
attackers stage one plan, not ``f · n`` unicasts.  The delay model alone
decides how a round's sends are filed:

* Under the synchronous model of Section IV
  (:attr:`~repro.sim.delays.DelayModel.synchronous`), everything sent in
  round ``r`` is due in round ``r + 1``, so the round's item list becomes
  round ``r + 1``'s bucket as it is.  A round of broadcasts only (the
  common case for the paper's algorithms) holds no plan and shows every
  recipient the same messages, so delivery builds one
  :class:`~repro.sim.messages.Inbox` and hands it to all of them; every
  tally and memoized derivation in :mod:`repro.core` is then computed
  once per round instead of once per node.
* A synchronous round with plans (an equivocating Byzantine sender, a
  protocol's direct reply) splits its recipients into classes of equal
  ``(sender, payload)`` row lists — same senders and payloads, by payload
  equality, in the same order — without building any row list.  Whether
  a recipient is in the round's broadcast destinations fixes its rows
  from the broadcast batches.  Each plan's payloads are numbered by
  equality (each distinct payload object hashed once), and plans with
  the same broadcast positions, destinations and numbers — attackers
  that send one pattern with their own payloads — split recipients
  alike, so each distinct such *shape* splits the classes once, in one
  pass over its unicasts.  Each class gets one inbox, built by one walk
  over the round's items, and its recipients share it, its
  :class:`RoundView` and its tallies, as in a broadcast-only round.  A
  recipient with an unhashable payload in its rows gets its own inbox.
  The cost is O(batches + plans' entries + classes × rows), with only
  the distinct shapes' entries walked in Python, not O(recipients ×
  rows).  Over one ``perfbench`` cycle (seed 7) the rounds
  with unicasts hand out 26 recipients per inbox on ``byzantine-unicast``
  and 4.9 on ``small-n-batch``.
* Any other delay model (the Section IX impossibility constructions) is
  asked for one delivery round per destination, in send order, and an
  action's destinations are grouped into one batch per delivery round.
  Such rounds give each recipient its own :class:`Inbox`; on
  ``search-fanout``, the workload of delayed runs, recipients rarely have
  equal rows (1.09 recipients per distinct content).

Every round builds its inboxes with the one constructor (:class:`Inbox`),
so the trace, metrics and outputs do not depend on which recipients
share: a synchronous run sent down the per-destination path (one inbox
per recipient in every round) is bit-identical to the grouped one
(``tests/test_engine_equivalence.py``), and delayed delivery is pinned by
recorded fixtures (``tests/test_trace_golden.py``,
``tests/fixtures/delayed_digests.json``).  A traced round expands its
plans back into per-action batches, in action order, so the trace lists
the same events either way.  Membership churn is handled by filtering
each item's recorded destinations against the active set at delivery
time.

The network caches the sorted active-membership list and the Byzantine
id set, invalidated only on membership events, and builds the omniscient
:class:`SystemView` lazily, only when a Byzantine process is scheduled.
It keeps per-node work in the round loop to the protocol step itself:
each node is classified once, at registration (correct, or Byzantine with
an ``observe_system`` hook); each distinct inbox object of a round gets
one :class:`RoundView`, so a shared round builds a single view for every
recipient; ``decided`` is polled only on correct nodes that have not
decided yet; and staging counts each node's sends in local variables and
writes them to :class:`RunMetrics` once per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .delays import DelayModel, SynchronousDelay
from .errors import (
    ConfigurationError,
    DuplicateNodeError,
    InvalidOutgoingError,
    MembershipError,
    RoundLimitExceeded,
)
from .events import DEFAULT_SEGMENT_EVENTS, Batch, EventKind, Trace
from .messages import (
    Broadcast,
    Inbox,
    NodeId,
    Outgoing,
    Unicast,
    payload_nbytes,
)
from .metrics import RunMetrics
from .node import Process, RoundView
from .rng import make_rng

__all__ = [
    "SystemView",
    "RunResult",
    "SynchronousNetwork",
    "all_correct_decided",
    "all_correct_halted",
]

_payload_of = attrgetter("payload")
_dest_of = attrgetter("dest")


class _Plan:
    """A node's action list that carries a unicast, staged as one item.

    ``actions`` holds the list as a tuple, ``kinds`` each action's class
    (:class:`Broadcast` or :class:`Unicast`), and ``dests`` the round's
    broadcast destinations.  ``messages`` counts a message per
    destination, as the metrics do.  Delivery sets ``payloads`` and
    ``shape`` (:meth:`lay_out`).
    """

    __slots__ = ("actions", "kinds", "dests", "broadcasts", "unicasts", "messages",
                 "payloads", "shape")

    def __init__(
        self, node_id: NodeId, actions: Sequence[Outgoing], dests: tuple[NodeId, ...]
    ) -> None:
        self.actions = actions = tuple(actions)
        kinds = list(map(type, actions))
        broadcasts = kinds.count(Broadcast)
        if broadcasts + kinds.count(Unicast) < len(kinds):
            kinds = [_kind(node_id, action) for action in actions]
            broadcasts = kinds.count(Broadcast)
        self.kinds = kinds
        self.dests = dests
        self.broadcasts = broadcasts
        self.unicasts = len(kinds) - broadcasts
        self.messages = broadcasts * len(dests) + self.unicasts

    def batches(self, sender: NodeId) -> list[Batch]:
        """The plan as per-action batches, in action order."""

        dests = self.dests
        return [
            (sender, action.payload, dests if kind is Broadcast else (action.dest,))
            for action, kind in zip(self.actions, self.kinds)
        ]

    def lay_out(self, shapes: dict[tuple, "_Shape"]) -> None:
        """Set ``payloads`` and the plan's shape, shared through ``shapes``
        by the round's plans that split the recipients alike.

        The shape's key holds the broadcasts' positions, each action's
        destination and each payload's number within the plan: equal
        payloads get one number, each distinct payload object is hashed
        once, and an unhashable one gets a negative number of its own.
        Two recipients get equal rows from a plan exactly when they get
        equal numbers from its shape.
        """

        self.payloads = payloads = list(map(_payload_of, self.actions))
        ids = list(map(id, payloads))
        numbers: dict[Any, int] = {}
        code_of: dict[int, int] = {}
        for key, payload in dict(zip(ids, payloads)).items():
            try:
                code_of[key] = numbers.setdefault(payload, len(numbers))
            except TypeError:
                code_of[key] = -1 - len(code_of)
        codes = tuple(map(code_of.__getitem__, ids))
        if self.broadcasts:
            kinds = self.kinds
            spread = tuple(i for i, kind in enumerate(kinds) if kind is Broadcast)
            targets = tuple(
                action.dest if kind is Unicast else None
                for action, kind in zip(self.actions, kinds)
            )
        else:
            spread, targets = (), tuple(map(_dest_of, self.actions))
        key = (spread, targets, codes)
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = _Shape(spread, targets, codes)
        self.shape = shape


def _kind(node_id: NodeId, action: Any) -> type:
    if isinstance(action, Broadcast):
        return Broadcast
    if isinstance(action, Unicast):
        return Unicast
    raise InvalidOutgoingError(node_id, action)


class _Shape:
    """What a plan sends each recipient, as positions and payload numbers.

    ``spread`` lists the broadcasts' positions and ``shared`` their
    numbers; ``to`` maps each unicast destination to its positions;
    ``codes`` numbers every position's payload.
    """

    __slots__ = ("spread", "shared", "to", "codes", "unhashable")

    def __init__(
        self, spread: tuple[int, ...], targets: tuple, codes: tuple[int, ...]
    ) -> None:
        to: dict[NodeId, list[int]] = {}
        skip = set(spread)
        for position, dest in enumerate(targets):
            if position not in skip:
                positions = to.get(dest)
                if positions is None:
                    to[dest] = [position]
                else:
                    positions.append(position)
        self.spread = list(spread)
        self.shared = tuple([codes[position] for position in spread])
        self.to = to
        self.codes = codes
        self.unhashable = min(codes) < 0

    def rows(self, own: list[int] | None, member: bool) -> list[int]:
        """The positions of a recipient's rows, in action order: its own
        unicasts' positions ``own``, and the broadcasts if it is a
        ``member``."""

        if member and self.spread:
            return sorted(self.spread + own) if own else self.spread
        return own or []


def _batches(items: list) -> list[Batch]:
    """A round's items as per-action batches, plans expanded in action order."""

    batches: list[Batch] = []
    for item in items:
        if len(item) == 3:
            batches.append(item)
        else:
            batches += item[1].batches(item[0])
    return batches


def _class_inbox(items: list, member: bool, dest: NodeId) -> Inbox:
    """The inbox of recipient ``dest`` and its class, built by one walk
    over the round's items; ``member`` says whether ``dest`` is one of the
    round's broadcast destinations."""

    by_sender: dict[NodeId, list[Any]] = {}
    for item in items:
        if len(item) == 3:
            if member:
                sender, payload, _ = item
                payloads = by_sender.get(sender)
                if payloads is None:
                    by_sender[sender] = [payload]
                else:
                    payloads.append(payload)
            continue
        sender, plan = item
        shape = plan.shape
        positions = shape.rows(shape.to.get(dest), member)
        if not positions:
            continue
        payloads = plan.payloads
        rows = [payloads[position] for position in positions]
        earlier = by_sender.get(sender)
        if earlier is None:
            by_sender[sender] = rows
        else:
            earlier += rows
    return Inbox(by_sender)


@dataclass(frozen=True)
class SystemView:
    """A global, omniscient snapshot offered to adversary strategies.

    Correct processes never see this — they only get a :class:`RoundView`.
    Byzantine strategies may use it to adapt (e.g. to target the node whose
    candidate set is smallest), modelling a worst-case adversary.
    """

    round_index: int
    active_ids: frozenset[NodeId]
    byzantine_ids: frozenset[NodeId]
    correct_processes: Mapping[NodeId, Process]
    rng: np.random.Generator

    @property
    def correct_ids(self) -> frozenset[NodeId]:
        return self.active_ids - self.byzantine_ids

    @property
    def n(self) -> int:
        return len(self.active_ids)

    @property
    def f(self) -> int:
        return len(self.byzantine_ids & self.active_ids)


@dataclass
class RunResult:
    """Everything a finished (or stopped) simulation exposes."""

    processes: dict[NodeId, Process]
    metrics: RunMetrics
    #: The run's trace.  When the network was spilling
    #: (``enable_trace_spill``) every event is in a sealed segment the sink
    #: holds, and queries read the segments back.
    trace: Trace
    rounds_executed: int
    stop_reason: str

    # -- convenience accessors -------------------------------------------------

    def process(self, node_id: NodeId) -> Process:
        return self.processes[node_id]

    @property
    def correct_processes(self) -> dict[NodeId, Process]:
        return {i: p for i, p in self.processes.items() if not p.is_byzantine}

    def outputs(self, correct_only: bool = True) -> dict[NodeId, Any]:
        """Decision values per node (``None`` for undecided nodes)."""

        source = self.correct_processes if correct_only else self.processes
        return {i: p.output for i, p in source.items()}

    def decided_outputs(self) -> dict[NodeId, Any]:
        """Decision values of correct nodes that actually decided."""

        return {i: p.output for i, p in self.correct_processes.items() if p.decided}


def all_correct_decided(network: "SynchronousNetwork") -> bool:
    """Stop condition: every correct process (halted or not) has decided."""

    procs = network.correct_processes()
    return bool(procs) and all(p.decided for p in procs)


def all_correct_halted(network: "SynchronousNetwork") -> bool:
    """Stop condition: every active correct process has halted."""

    procs = network.correct_processes()
    return bool(procs) and all(p.halted for p in procs)


class SynchronousNetwork:
    """Drives a set of processes round by round.

    Parameters
    ----------
    processes:
        The initial participants.  Byzantine participants are ordinary
        :class:`Process` objects whose ``is_byzantine`` is ``True`` (see
        :class:`repro.adversary.base.ByzantineProcess`).
    delay_model:
        Maps each message to its delivery round; defaults to the
        synchronous next-round model.
    seed:
        Seed for the network-level RNG (delays, adversary randomness).
    trace:
        When ``True`` a full :class:`~repro.sim.events.Trace` is recorded.
    joins:
        Optional mapping ``round -> iterable of processes`` activated at the
        *start* of that round (they may send from that round onwards).
    leaves:
        Optional mapping ``round -> iterable of node ids`` removed at the
        start of that round.  Used by churn schedules; protocol-level
        "absent" announcements are the protocol's own business.
    """

    def __init__(
        self,
        processes: Iterable[Process],
        *,
        delay_model: DelayModel | None = None,
        seed: int = 0,
        trace: bool = False,
        joins: Mapping[int, Iterable[Process]] | None = None,
        leaves: Mapping[int, Iterable[NodeId]] | None = None,
    ) -> None:
        self._processes: dict[NodeId, Process] = {}
        # Each node's role, classified once at registration: the correct
        # processes, the correct ones that have not decided yet, and the
        # ``observe_system`` hooks of the Byzantine ones.
        self._correct_map: dict[NodeId, Process] = {}
        self._undecided: set[NodeId] = set()
        self._observers: dict[NodeId, Callable[[SystemView], None]] = {}
        for process in processes:
            self._register(process)
        self._active: set[NodeId] = set(self._processes)
        self._delay_model = delay_model or SynchronousDelay()
        self._rng = make_rng(seed)
        self._trace = Trace(enabled=trace)
        self._metrics = RunMetrics()
        self._round = 0
        self._joins: dict[int, list[Process]] = {
            int(r): list(ps) for r, ps in (joins or {}).items()
        }
        self._leaves: dict[int, list[NodeId]] = {
            int(r): list(ids) for r, ids in (leaves or {}).items()
        }
        # Messages in flight (see module docstring): items keyed by
        # delivery round, and each due synchronous round's distinct plans.
        self._in_flight: dict[int, list] = {}
        self._plans: dict[int, list[_Plan]] = {}
        # membership caches (see module docstring).
        self._sorted_cache: tuple[NodeId, ...] | None = None
        self._byz_cache: frozenset[NodeId] | None = None
        #: Number of times the sorted-membership cache was rebuilt.  The old
        #: engine re-sorted up to ``2 + broadcasts`` times per round; the
        #: regression test pins this to one rebuild per membership event.
        self.sorted_rebuilds = 0
        #: Opt-in wire-volume accounting (serialised payload bytes); see
        #: :meth:`enable_payload_accounting`.
        self._measure_bytes = False
        #: Opt-in per-phase wall-clock accumulation (deliver/step/stage
        #: seconds); see :meth:`enable_phase_profile`.
        self._phase_profile: dict[str, float] | None = None

    def enable_trace_spill(
        self, sink, *, segment_events: int = DEFAULT_SEGMENT_EVENTS
    ) -> None:
        """Flush sealed trace segments through ``sink`` during the run.

        ``sink`` is a segment sink (see
        :meth:`repro.store.RunStore.trace_sink`); while the run executes,
        every ``segment_events`` recorded events are sealed and written
        out, bounding peak trace memory by one segment.  :meth:`run`
        seals the tail when it completes; the trace on ``RunResult.trace``
        answers every query by reading its segments back through the sink.
        Must be configured on a traced network before the first round.
        """

        if not self._trace.enabled:
            raise ConfigurationError(
                "trace spill requires tracing (construct with trace=True)"
            )
        if self._round > 0 or len(self._trace):
            raise ConfigurationError(
                "trace spill must be enabled before the run starts"
            )
        self._trace = Trace(
            enabled=True, spill_to=sink, segment_events=segment_events
        )

    def enable_payload_accounting(self) -> None:
        """Record serialised payload bytes alongside the message counters.

        Bytes are counted per send action, next to the message-count
        bookkeeping, so totals do not depend on how delivery is filed.
        Off by default: sizing a payload costs a pickle per action, which
        the throughput benchmarks must not pay on their timed runs.
        """

        self._measure_bytes = True

    # -- registration / membership ----------------------------------------------

    def _register(self, process: Process) -> None:
        node_id = process.node_id
        if node_id in self._processes:
            raise DuplicateNodeError(node_id)
        self._processes[node_id] = process
        if not process.is_byzantine:
            self._correct_map[node_id] = process
            self._undecided.add(node_id)
        elif hasattr(process, "observe_system"):
            self._observers[node_id] = process.observe_system

    def _invalidate_membership(self) -> None:
        self._sorted_cache = None
        self._byz_cache = None

    def add_process(self, process: Process, *, at_round: int | None = None) -> None:
        """Add a participant, immediately or at the start of ``at_round``."""

        if at_round is None or at_round <= self._round:
            self._register(process)
            self._active.add(process.node_id)
            self._invalidate_membership()
        else:
            self._joins.setdefault(at_round, []).append(process)

    def remove_process(self, node_id: NodeId, *, at_round: int | None = None) -> None:
        """Remove a participant, immediately or at the start of ``at_round``."""

        if at_round is None or at_round <= self._round:
            if node_id not in self._processes:
                raise MembershipError(f"cannot remove unknown node {node_id}")
            self._active.discard(node_id)
            self._invalidate_membership()
        else:
            self._leaves.setdefault(at_round, []).append(node_id)

    def _apply_membership_changes(self, round_index: int) -> None:
        changed = False
        for process in self._joins.pop(round_index, []):
            if process.node_id in self._processes:
                raise MembershipError(
                    f"node {process.node_id} joined twice (round {round_index})"
                )
            self._register(process)
            self._active.add(process.node_id)
            changed = True
            self._trace.record_event(
                EventKind.NODE_JOINED, round_index, node_id=process.node_id
            )
        for node_id in self._leaves.pop(round_index, []):
            if node_id not in self._processes:
                raise MembershipError(
                    f"node {node_id} left without ever joining (round {round_index})"
                )
            self._active.discard(node_id)
            changed = True
            self._trace.record_event(
                EventKind.NODE_LEFT, round_index, node_id=node_id
            )
        if changed:
            self._invalidate_membership()

    # -- introspection -------------------------------------------------------------

    @property
    def current_round(self) -> int:
        return self._round

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    @property
    def metrics(self) -> RunMetrics:
        return self._metrics

    @property
    def trace(self) -> Trace:
        return self._trace

    def processes(self) -> dict[NodeId, Process]:
        return dict(self._processes)

    def process(self, node_id: NodeId) -> Process:
        return self._processes[node_id]

    def active_ids(self) -> frozenset[NodeId]:
        return frozenset(self._active)

    def byzantine_ids(self) -> frozenset[NodeId]:
        cache = self._byz_cache
        if cache is None:
            cache = frozenset(
                i for i in self._active if self._processes[i].is_byzantine
            )
            self._byz_cache = cache
        return cache

    def correct_processes(self) -> list[Process]:
        correct = self._correct_map
        return [correct[i] for i in self._active_sorted() if i in correct]

    def pending_messages(self) -> int:
        """Number of (message, destination) pairs in flight."""

        return sum(
            len(item[2]) if len(item) == 3 else item[1].messages
            for items in self._in_flight.values()
            for item in items
        )

    def _active_sorted(self) -> tuple[NodeId, ...]:
        cache = self._sorted_cache
        if cache is None:
            cache = tuple(sorted(self._active))
            self._sorted_cache = cache
            self.sorted_rebuilds += 1
        return cache

    # -- the round loop --------------------------------------------------------------

    def enable_phase_profile(self) -> None:
        """Accumulate per-phase wall-clock seconds.

        After enabling, :meth:`phase_profile` reports cumulative
        ``deliver``/``step``/``stage`` seconds.  Purely observational — the
        executed rounds are unchanged.
        """

        self._phase_profile = {"deliver": 0.0, "step": 0.0, "stage": 0.0}

    def phase_profile(self) -> dict[str, float] | None:
        """Cumulative per-phase seconds, or ``None`` when not enabled."""

        profile = self._phase_profile
        return dict(profile) if profile is not None else None

    def step_round(self) -> None:
        """Execute exactly one round."""

        self._round += 1
        round_index = self._round
        self._apply_membership_changes(round_index)
        round_metrics = self._metrics.start_round(round_index)
        self._trace.record_event(EventKind.ROUND_START, round_index)
        profile = self._phase_profile
        clock = perf_counter if profile is not None else None

        # 1. Deliver messages scheduled for this round.
        started = clock() if clock else 0.0
        inboxes = self._deliver(round_index)
        if clock:
            now = clock()
            profile["deliver"] += now - started
            started = now

        # 2. Step every active process.
        outgoing_by_node = self._step_processes(round_index, round_metrics, inboxes)
        if clock:
            now = clock()
            profile["step"] += now - started
            started = now

        # 3. Schedule the outgoing messages.
        self._stage_outgoing(outgoing_by_node, round_index)
        if clock:
            profile["stage"] += clock() - started

    # -- delivery ------------------------------------------------------------------

    def _deliver(self, round_index: int) -> dict[NodeId, Inbox]:
        """Turn the items due this round into inboxes.

        A synchronous round without plans (broadcasts only) builds one
        inbox from all of its batches and gives it to every recipient; a
        synchronous round with plans builds one per class of recipients
        with equal rows (:meth:`_deliver_classes`), and a delayed round one
        per recipient.
        """

        items = self._in_flight.pop(round_index, None)
        plans = self._plans.pop(round_index, None)
        if not items:
            return {}
        active = self._active
        trace = self._trace
        if trace.enabled:
            # One trace call for the round.  A broadcast staged since the
            # last membership change carries the current sorted-active
            # cache as its destinations, so only the other batches are
            # checked; the per-destination filter runs only when one of
            # them names a node that is no longer active.
            active_now = self._active_sorted()
            delivered = _batches(items) if plans else items
            others = [dests for _, _, dests in delivered if dests is not active_now]
            if others and not active.issuperset(chain.from_iterable(others)):
                delivered = [
                    (sender, payload, [d for d in dests if d in active])
                    for sender, payload, dests in delivered
                ]
            trace.record_deliveries_columnar(round_index, delivered)
        if plans:
            return self._deliver_classes(items, plans)
        if self._delay_model.synchronous:
            # Broadcast-only round: every recipient sees the same messages,
            # so one inbox serves all of them.  The single shared inbox is
            # also what lets the batched total-order wrapper be routed once
            # per round instead of once per receiving node (see
            # repro.core.total_order).
            inbox = Inbox.from_pairs(
                (sender, payload) for sender, payload, _dests in items
            )
            return {dest: inbox for dest in items[0][2] if dest in active}
        pairs_by_dest: dict[NodeId, list[tuple[NodeId, Any]]] = {}
        for sender, payload, dests in items:
            pair = (sender, payload)
            for dest in dests:
                if dest in active:
                    bucket = pairs_by_dest.get(dest)
                    if bucket is None:
                        pairs_by_dest[dest] = bucket = []
                    bucket.append(pair)
        processes = self._processes
        return {
            dest: Inbox.from_pairs(pairs)
            for dest, pairs in pairs_by_dest.items()
            if not processes[dest].halted
        }

    def _deliver_classes(self, items: list, plans: list[_Plan]) -> dict[NodeId, Inbox]:
        """One inbox per class of recipients with equal row lists.

        A recipient's rows from the broadcast batches depend only on
        whether it is one of the round's broadcast destinations (a
        *member*), and whether two recipients get equal rows from a plan
        depends only on the plan's shape, so the round's distinct shapes
        split the recipients, one pass over each shape's unicasts.  A
        recipient's class starts at 0 and moves, for each shape whose
        numbers for it differ from the shape's broadcasts, to the class
        interned for (class, shape, numbers); a non-member also moves for
        every shape with broadcasts that does not unicast to it.
        Recipients share an inbox when their classes are equal and, if the
        round has broadcast batches, so is their membership: exactly when
        their row lists are equal, unless a row is unhashable, which gives
        the recipient its own inbox.
        """

        active = self._active
        processes = self._processes
        dests = plans[0].dests
        members = set(dests)
        batched = unhashable_spread = False
        for item in items:
            if len(item) == 3:
                batched = True
                try:
                    hash(item[1])
                except TypeError:
                    unhashable_spread = True
        shapes: dict[tuple, _Shape] = {}
        for plan in plans:
            plan.lay_out(shapes)
        outsiders: set[NodeId] = set()
        for shape in shapes.values():
            if shape.shared and min(shape.shared) < 0:
                unhashable_spread = True
            if not members.issuperset(shape.to):
                outsiders.update(
                    dest for dest in shape.to
                    if dest not in members and dest in active
                    and not processes[dest].halted
                )
        classes: dict[NodeId, int] = {}
        interned: dict[tuple, int] = {}
        solo: set[NodeId] = set()
        skipped: set[NodeId] = set()
        for index, shape in enumerate(shapes.values()):
            shared, codes, unhashable = shape.shared, shape.codes, shape.unhashable
            for dest, positions in shape.to.items():
                cls = classes.get(dest)
                if cls is None:
                    if dest in skipped:
                        continue
                    if dest not in active or processes[dest].halted:
                        skipped.add(dest)
                        continue
                    cls = 0
                if shared:
                    positions = shape.rows(positions, dest in members)
                numbers = tuple([codes[position] for position in positions])
                if numbers != shared:
                    cls = interned.setdefault((cls, index, numbers), len(interned) + 1)
                classes[dest] = cls
                if unhashable and min(numbers) < 0:
                    solo.add(dest)
            if shared:
                # A non-member gets none of the shape's broadcasts.
                for dest in outsiders:
                    if dest not in shape.to:
                        classes[dest] = interned.setdefault(
                            (classes.get(dest, 0), index, ()), len(interned) + 1
                        )
        if batched or any(shape.shared for shape in shapes.values()):
            # Members that no plan unicasts to get the broadcast rows alone.
            for dest in dests:
                if dest in active and dest not in classes and not processes[dest].halted:
                    classes[dest] = 0
        inboxes: dict[NodeId, Inbox] = {}
        by_class: dict[tuple[bool, int], Inbox] = {}
        for dest, cls in classes.items():
            member = dest in members
            if dest in solo or (member and unhashable_spread):
                inboxes[dest] = _class_inbox(items, member, dest)
                continue
            key = (batched and member, cls)
            inbox = by_class.get(key)
            if inbox is None:
                inbox = by_class[key] = _class_inbox(items, member, dest)
            inboxes[dest] = inbox
        return inboxes

    # -- staging -------------------------------------------------------------------

    def _stage_outgoing(
        self,
        outgoing_by_node: dict[NodeId, Sequence[Outgoing]],
        round_index: int,
    ) -> None:
        """File this round's sends for their delivery rounds.

        A node whose actions are all broadcasts stages one ``(sender,
        payload, dests)`` batch per action; a node whose actions carry a
        unicast stages one ``(sender, plan)`` item, its list compiled into
        a :class:`_Plan` once per list object.  Under the synchronous model
        the round's items become round ``round_index + 1``'s bucket;
        otherwise :meth:`_schedule_per_destination` files each action by
        its destinations' delivery rounds.  Each node's broadcasts,
        unicasts and messages go to the metrics in one
        :meth:`RunMetrics.record_sends` call, and a traced round's batches
        go to the trace in one call.
        """

        synchronous = self._delay_model.synchronous
        staged: list = []
        plans: dict[int, _Plan] = {}
        # Membership cannot change while staging, so every broadcast in the
        # round shares one destination tuple.
        broadcast_dests = self._active_sorted()
        fanout = len(broadcast_dests)
        metrics = self._metrics
        measure_bytes = self._measure_bytes
        for node_id, actions in outgoing_by_node.items():
            plan = plans.get(id(actions)) if plans else None
            if plan is None:
                start = len(staged)
                for action in actions:
                    if not isinstance(action, Broadcast):
                        del staged[start:]
                        plan = plans[id(actions)] = _Plan(
                            node_id, actions, broadcast_dests
                        )
                        break
                    staged.append((node_id, action.payload, broadcast_dests))
                else:
                    count = len(staged) - start
                    metrics.record_sends(node_id, count * fanout, count, 0)
                    if measure_bytes or not synchronous:
                        self._file(staged[start:], round_index)
                    continue
            staged.append((node_id, plan))
            metrics.record_sends(node_id, plan.messages, plan.broadcasts, plan.unicasts)
            if measure_bytes or not synchronous:
                self._file(plan.batches(node_id), round_index)
        if self._trace.enabled:
            self._trace.record_sends_columnar(
                round_index, _batches(staged) if plans else staged
            )
        if synchronous and staged:
            self._in_flight[round_index + 1] = staged
            if plans:
                self._plans[round_index + 1] = list(plans.values())

    def _file(self, batches: list[Batch], round_index: int) -> None:
        """Account one node's batches' payload bytes, when enabled, and
        schedule them per destination under a delayed model."""

        if self._measure_bytes:
            record_payload = self._metrics.record_payload
            for _, payload, dests in batches:
                record_payload(payload_nbytes(payload), len(dests))
        if not self._delay_model.synchronous:
            for sender, payload, dests in batches:
                self._schedule_per_destination(sender, payload, dests, round_index)

    def _schedule_per_destination(
        self,
        sender: NodeId,
        payload: Any,
        dests: tuple[NodeId, ...],
        round_index: int,
    ) -> None:
        """Ask the delay model for each destination's delivery round.

        One ``delivery_round`` call per destination, in order, so the rng
        draws follow the send order; the destinations are then grouped
        into one batch per delivery round, in first-occurrence order.
        """

        delivery_round = self._delay_model.delivery_round
        groups: dict[int, list[NodeId]] = {}
        for dest in dests:
            deliver = delivery_round(sender, dest, round_index, self._rng)
            if deliver <= round_index:
                raise ValueError(
                    "a message cannot be delivered in the round it was sent "
                    f"(sent {round_index}, deliver {deliver})"
                )
            groups.setdefault(deliver, []).append(dest)
        for deliver, group in groups.items():
            self._in_flight.setdefault(deliver, []).append(
                (sender, payload, tuple(group))
            )

    # -- stepping -------------------------------------------------------------------

    def _step_processes(
        self,
        round_index: int,
        round_metrics,
        inboxes: dict[NodeId, Inbox],
    ) -> dict[NodeId, Sequence[Outgoing]]:
        active_sorted = self._active_sorted()
        byzantine_ids = self.byzantine_ids()
        round_metrics.active_nodes = len(active_sorted)
        round_metrics.byzantine_nodes = len(byzantine_ids)
        system_view: SystemView | None = None
        outgoing_by_node: dict[NodeId, Sequence[Outgoing]] = {}
        halted_nodes = 0
        delivered = 0
        per_node_delivered = self._metrics.per_node_delivered
        processes = self._processes
        observers = self._observers
        undecided = self._undecided
        # One view (and delivery count) per distinct inbox object: a shared
        # round builds one for every recipient, a per-destination round one
        # per recipient, and the round's empty inbox one for the rest.
        empty = Inbox.empty()
        views: dict[int, tuple[RoundView, int]] = {}
        for node_id in active_sorted:
            process = processes[node_id]
            if process.halted:
                halted_nodes += 1
                continue
            inbox = inboxes.get(node_id, empty)
            entry = views.get(id(inbox))
            if entry is None:
                entry = views[id(inbox)] = (RoundView(round_index, inbox), len(inbox))
            view, count = entry
            per_node_delivered[node_id] += count
            delivered += count
            observe = observers.get(node_id)
            if observe is not None:
                if system_view is None:
                    # Built lazily: rounds without scheduled Byzantine nodes
                    # never pay for the omniscient snapshot.
                    system_view = SystemView(
                        round_index=round_index,
                        active_ids=frozenset(self._active),
                        byzantine_ids=byzantine_ids,
                        correct_processes=dict(self._correct_map),
                        rng=self._rng,
                    )
                observe(system_view)
            outgoing = process.step(view)
            if outgoing:
                outgoing_by_node[node_id] = outgoing
            if node_id in undecided and process.decided:
                undecided.discard(node_id)
                self._record_decision(process, round_index)
            if process.halted:
                self._trace.record_event(
                    EventKind.NODE_HALTED, round_index, node_id=node_id
                )
        round_metrics.halted_nodes = halted_nodes
        round_metrics.messages_delivered += delivered
        return outgoing_by_node

    def _record_decision(self, process: Process, round_index: int) -> None:
        self._metrics.record_decision(process.node_id, round_index, process.output)
        self._trace.record_event(
            EventKind.NODE_DECIDED,
            round_index,
            node_id=process.node_id,
            detail=process.output,
        )

    # -- running to completion -------------------------------------------------------

    def run(
        self,
        *,
        max_rounds: int = 1000,
        stop_when: Callable[["SynchronousNetwork"], bool] | None = None,
        raise_on_limit: bool = False,
    ) -> RunResult:
        """Run until ``stop_when`` is satisfied or ``max_rounds`` elapse.

        The default stop condition is "every active correct process has
        decided", which is what the single-shot agreement experiments use.
        """

        condition = stop_when or all_correct_decided
        stop_reason = "round_limit"
        for _ in range(max_rounds):
            self.step_round()
            if condition(self):
                stop_reason = "stop_condition"
                break
        if self._trace.spilling:
            self._trace.finalize_spill()  # see enable_trace_spill
        result = RunResult(
            processes=dict(self._processes),
            metrics=self._metrics,
            trace=self._trace,
            rounds_executed=self._round,
            stop_reason=stop_reason,
        )
        if stop_reason == "round_limit" and raise_on_limit:
            raise RoundLimitExceeded(max_rounds, result)
        return result
