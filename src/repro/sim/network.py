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
Messages in flight are per-action batches — ``(sender, payload,
destinations)`` — bucketed by delivery round
(``dict[deliver_round, list[batch]]``), so each round pops exactly the
batches that are due.  The delay model alone decides how a round's sends
are filed:

* Under the synchronous model of Section IV
  (:attr:`~repro.sim.delays.DelayModel.synchronous`), everything sent in
  round ``r`` is due in round ``r + 1``, so the round's batch list — one
  batch per send action — becomes round ``r + 1``'s bucket as it is.  A
  round of broadcasts only (the common case for the paper's algorithms)
  shows every recipient the same messages, so the bucket also records the
  shared destination tuple, and delivery builds one
  :class:`~repro.sim.messages.Inbox` and hands it to all of them; every
  tally and memoized derivation in :mod:`repro.core` is then computed
  once per round instead of once per node.
* A synchronous round that carried a unicast (an equivocating Byzantine
  sender, a protocol's direct reply) collects each recipient's
  ``(sender, payload)`` rows in batch order and builds one inbox per
  distinct row list: recipients whose rows are equal — same senders and
  payloads, by payload equality, in the same order — share the inbox,
  its :class:`RoundView` and its tallies, as in a broadcast-only round.
  A row list holding an unhashable payload gets its own inbox.  Over one
  ``perfbench`` cycle (seed 7) the rounds with unicasts hand out 26
  recipients per inbox on ``byzantine-unicast`` and 4.9 on
  ``small-n-batch``.
* Any other delay model (the Section IX impossibility constructions) is
  asked for one delivery round per destination, in send order, and an
  action's destinations are grouped into one batch per delivery round.
  Such rounds give each recipient its own :class:`Inbox`; on
  ``search-fanout``, the workload of delayed runs, recipients rarely have
  equal rows (1.09 recipients per distinct content).

Every round builds its inboxes with the one constructor
(:meth:`Inbox.from_pairs`), so the trace, metrics and outputs do not
depend on which recipients share: a synchronous run sent down the
per-destination path (one inbox per recipient in every round) is
bit-identical to the grouped one (``tests/test_engine_equivalence.py``),
and delayed delivery is pinned by recorded fixtures
(``tests/test_trace_golden.py``, ``tests/fixtures/delayed_digests.json``).
Membership churn is handled by filtering each batch's recorded
destinations against the active set at delivery time.

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

    def agreement_reached(self) -> bool:
        """True when every correct node decided and on the same value."""

        outputs = [p.output for p in self.correct_processes.values()]
        if not outputs or any(p is None for p in outputs):
            return False
        first = outputs[0]
        return all(value == first for value in outputs)

    def distinct_decisions(self) -> set[Any]:
        return {p.output for p in self.correct_processes.values() if p.decided}


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
        # Messages in flight (see module docstring): batches keyed by
        # delivery round, and each due round's shared destination tuple
        # (None when the round's recipients get per-destination inboxes).
        self._in_flight: dict[int, list[Batch]] = {}
        self._shared: dict[int, tuple[NodeId, ...] | None] = {}
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
            len(dests)
            for batches in self._in_flight.values()
            for _, _, dests in batches
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
        """Turn the batches due this round into inboxes.

        A shared (broadcast-only, synchronous) round builds one inbox from
        all of its batches and gives it to every recipient.  A synchronous
        round with unicasts builds one inbox per distinct row list, and a
        delayed round one inbox per recipient.
        """

        batches = self._in_flight.pop(round_index, None)
        shared = self._shared.pop(round_index, None)
        if not batches:
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
            delivered = batches
            others = [dests for _, _, dests in batches if dests is not active_now]
            if others and not active.issuperset(chain.from_iterable(others)):
                delivered = [
                    (sender, payload, [d for d in dests if d in active])
                    for sender, payload, dests in batches
                ]
            trace.record_deliveries_columnar(round_index, delivered)
        if shared is not None:
            # Broadcast-only round: every recipient sees the same messages,
            # so one inbox serves all of them.  The single shared inbox is
            # also what lets the batched total-order wrapper be routed once
            # per round instead of once per receiving node (see
            # repro.core.total_order).
            inbox = Inbox.from_pairs(
                (sender, payload) for sender, payload, _dests in batches
            )
            return {dest: inbox for dest in shared if dest in active}
        pairs_by_dest: dict[NodeId, list[tuple[NodeId, Any]]] = {}
        for sender, payload, dests in batches:
            pair = (sender, payload)
            for dest in dests:
                if dest in active:
                    bucket = pairs_by_dest.get(dest)
                    if bucket is None:
                        pairs_by_dest[dest] = bucket = []
                    bucket.append(pair)
        processes = self._processes
        if not self._delay_model.synchronous:
            return {
                dest: Inbox.from_pairs(pairs)
                for dest, pairs in pairs_by_dest.items()
                if not processes[dest].halted
            }
        # Synchronous round with unicasts: recipients whose row lists are
        # equal (same senders and payloads, in the same order) share one
        # inbox; a row list holding an unhashable payload gets its own.
        inboxes: dict[NodeId, Inbox] = {}
        by_rows: dict[tuple, Inbox] = {}
        for dest, pairs in pairs_by_dest.items():
            if processes[dest].halted:
                continue
            key = tuple(pairs)
            try:
                inbox = by_rows.get(key)
            except TypeError:
                inbox = Inbox.from_pairs(pairs)
            else:
                if inbox is None:
                    by_rows[key] = inbox = Inbox.from_pairs(pairs)
            inboxes[dest] = inbox
        return inboxes

    # -- staging -------------------------------------------------------------------

    def _stage_outgoing(
        self,
        outgoing_by_node: dict[NodeId, Sequence[Outgoing]],
        round_index: int,
    ) -> None:
        """File this round's sends as batches for their delivery rounds.

        Under the synchronous model the round's batch list becomes round
        ``round_index + 1``'s bucket, shared when every action was a
        broadcast; otherwise :meth:`_schedule_per_destination` files each
        action by its destinations' delivery rounds.  Each node's
        broadcasts, unicasts and messages go to the metrics in one
        :meth:`RunMetrics.record_sends` call, and a traced round's batch
        list goes to the trace in one call.
        """

        synchronous = self._delay_model.synchronous
        staged: list[Batch] = []
        any_unicast = False
        # Membership cannot change while staging, so every broadcast in the
        # round shares one destination tuple.
        broadcast_dests = self._active_sorted()
        metrics = self._metrics
        measure_bytes = self._measure_bytes
        for node_id, actions in outgoing_by_node.items():
            broadcasts = unicasts = 0
            for action in actions:
                if isinstance(action, Broadcast):
                    dests = broadcast_dests
                    broadcasts += 1
                elif isinstance(action, Unicast):
                    dests = (action.dest,)
                    unicasts += 1
                else:
                    raise InvalidOutgoingError(node_id, action)
                if measure_bytes:
                    metrics.record_payload(payload_nbytes(action.payload), len(dests))
                staged.append((node_id, action.payload, dests))
                if not synchronous:
                    self._schedule_per_destination(
                        node_id, action.payload, dests, round_index
                    )
            metrics.record_sends(
                node_id, broadcasts * len(broadcast_dests) + unicasts, broadcasts, unicasts
            )
            if unicasts:
                any_unicast = True
        self._trace.record_sends_columnar(round_index, staged)
        if synchronous and staged:
            self._in_flight[round_index + 1] = staged
            self._shared[round_index + 1] = None if any_unicast else broadcast_dests

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
        into one batch per delivery round, in first-occurrence order, and
        those rounds are marked as not shared.
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
            self._shared[deliver] = None

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
