"""Structured trace events on a columnar store.

Traces are optional (they cost memory proportional to message count) and
are mainly used by the debugging helpers in the examples and by a handful
of integration tests that assert on *when* something happened rather than
just on final outputs.

The columnar contract
---------------------
A traced run used to allocate one frozen :class:`TraceEvent` dataclass per
recorded event — hundreds of thousands of objects for a single n=250
sweep, which made ``trace=True`` runs an order of magnitude slower than
untraced ones.  :class:`Trace` now stores events as parallel
columns instead:

* ``kind`` — one byte per event (:class:`EventKind` member codes, in enum
  member order, in a ``array('B')``);
* ``round`` — the round index per event (``array('q')``);
* ``node`` / ``peer`` — node-id columns (plain lists; ``None`` marks an
  absent id, e.g. the peer of a ``ROUND_START``);
* ``payload`` / ``detail`` — object-reference columns.  Payload entries
  reference the same (typically interned, see
  :func:`repro.sim.messages.intern_payload`) payload objects the network
  moved, so a broadcast fan-out costs one shared reference per recipient
  rather than a per-event copy of anything.

:class:`TraceEvent` survives as a *lazily materialised view*: iteration
and every query helper (:meth:`Trace.of_kind`, :meth:`Trace.for_node`,
:meth:`Trace.in_round`, :meth:`Trace.where`, :meth:`Trace.first`, …)
build event objects on demand from the columns, so the query API is
unchanged while recording never allocates per-event objects.

Aggregation happens on the columns too: :meth:`Trace.aggregate` groups
events by round, node or kind and reduces them to counts or serialised
payload-byte tallies without materialising a single :class:`TraceEvent` —
the same rows :meth:`repro.store.db.StoredTrace.aggregate` computes
segment-by-segment over persisted traces, so in-memory and stored answers
are interchangeable (and asserted identical by the analytics tests).

Recording happens through a narrow interface the network calls:
:meth:`Trace.record_event` appends one event without constructing a
``TraceEvent`` (round starts, decisions, halts), and the round variants
:meth:`Trace.record_sends_columnar` /
:meth:`Trace.record_deliveries_columnar` take a whole round's
``(sender, payload, dests)`` batch list — the format
:class:`repro.sim.network.SynchronousNetwork` stages — and extend every
column once per call.  A traced round therefore costs one call for its
sends and one for its deliveries, however many unicasts and broadcasts it
holds.  A spilling trace cuts a round's batch list after the fan-out that
fills a segment and seals before appending the rest, so its live tail
never exceeds ``segment_events`` plus one fan-out, exactly as when fan-outs
were appended one by one.  :meth:`Trace.record` still accepts a pre-built
:class:`TraceEvent` for callers outside the hot path.

Event order, field values and query results are bit-identical to the
object-per-event backend; ``tests/test_trace_golden.py`` pins that
against fixtures recorded from the pre-columnar implementation, and the
Hypothesis round-trip property in ``tests/test_properties.py`` checks the
query helpers against a list-of-dataclass reference model.
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Any, Callable, Iterable, Iterator, Sequence

from .messages import NodeId, Payload, payload_nbytes

__all__ = [
    "Batch",
    "DEFAULT_SEGMENT_EVENTS",
    "EventKind",
    "TraceEvent",
    "Trace",
    "format_aggregate_rows",
]

#: Default trace-segment granularity (events per sealed/persisted segment).
#: Shared by :meth:`Trace.export_segments` callers, the spill mode and the
#: run store layer (re-exported as ``repro.store.DEFAULT_SEGMENT_EVENTS``).
DEFAULT_SEGMENT_EVENTS = 8192

#: One fan-out of a round: its sender, payload and destinations.  A round's
#: sends (or deliveries) are a list of these, in recording order.
Batch = tuple[NodeId, Payload, Sequence[NodeId]]


class EventKind(Enum):
    """The kinds of things the simulator can record."""

    ROUND_START = "round_start"
    MESSAGE_SENT = "message_sent"
    MESSAGE_DELIVERED = "message_delivered"
    NODE_DECIDED = "node_decided"
    NODE_HALTED = "node_halted"
    NODE_JOINED = "node_joined"
    NODE_LEFT = "node_left"


#: Column codes: enum member order is the stable kind <-> byte mapping.
_KIND_BY_CODE: tuple[EventKind, ...] = tuple(EventKind)
_KIND_CODE: dict[EventKind, int] = {kind: code for code, kind in enumerate(EventKind)}
_KIND_BYTE: dict[EventKind, bytes] = {
    kind: bytes((code,)) for kind, code in _KIND_CODE.items()
}


def _count_kinds(kinds: bytes) -> dict[str, int]:
    """Events per kind value over a ``kinds`` byte column, in enum order."""

    counts: dict[str, int] = {}
    for code, kind in enumerate(_KIND_BY_CODE):
        count = kinds.count(code)
        if count:
            counts[kind.value] = count
    return counts


def _repeat_each(values: Sequence, counts: Sequence[int]) -> list:
    """``values[i]`` repeated ``counts[i]`` times, in order, as one list."""

    out: list = []
    for value, count in zip(values, counts):
        if count == 1:
            out.append(value)
        else:
            out.extend(repeat(value, count))
    return out


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event, materialised on demand from the columns."""

    kind: EventKind
    round_index: int
    node_id: NodeId | None = None
    peer_id: NodeId | None = None
    payload: Payload | None = None
    detail: Any = None


# -- aggregation plumbing (shared with repro.store.db.StoredTrace) -----------

#: Grouping axes and reducers ``aggregate`` understands.
AGGREGATE_GROUPS = ("round", "node", "kind")
AGGREGATE_REDUCERS = ("count", "payload_bytes")


def check_aggregate_args(
    kinds, by: str, reduce
) -> tuple[frozenset[int] | None, tuple[str, ...]]:
    """Validate ``aggregate`` arguments; return (kind-code filter, reducers).

    ``kinds`` may be ``None`` (all kinds), one :class:`EventKind` or an
    iterable of them; ``reduce`` may be one reducer name or a sequence.
    """

    if by not in AGGREGATE_GROUPS:
        raise ValueError(
            f"by must be one of {AGGREGATE_GROUPS}, not {by!r}"
        )
    reducers = (reduce,) if isinstance(reduce, str) else tuple(reduce)
    for name in reducers:
        if name not in AGGREGATE_REDUCERS:
            raise ValueError(
                f"reduce must draw from {AGGREGATE_REDUCERS}, not {name!r}"
            )
    if not reducers:
        raise ValueError("reduce must name at least one reducer")
    if kinds is None:
        return None, reducers
    if isinstance(kinds, EventKind):
        kinds = (kinds,)
    return frozenset(_KIND_CODE[kind] for kind in kinds), reducers


def format_aggregate_rows(
    groups: dict, by: str, reducers: tuple[str, ...]
) -> list[dict]:
    """Turn an accumulated ``{group key: [tallies]}`` dict into sorted rows.

    Kind groups come back in enum member order (matching ``kind_counts``),
    round/node groups in ascending key order with ``None`` keys (events
    without a node, e.g. ``ROUND_START``) last.  Row dicts are JSON-safe
    and feed :func:`repro.analysis.tables.render_table` / ``aggregate_rows``
    directly.
    """

    if by == "kind":
        keys = [code for code in range(len(_KIND_BY_CODE)) if code in groups]
        labels = [_KIND_BY_CODE[code].value for code in keys]
    else:
        keys = sorted(groups, key=lambda k: (k is None, k))
        labels = keys
    return [
        {by: label, **dict(zip(reducers, groups[key]))}
        for key, label in zip(keys, labels)
    ]


class Trace:
    """An append-only columnar event store with :class:`TraceEvent` views.

    The constructor accepts an optional iterable of pre-built events (for
    tests and reference models); the network always starts from an empty
    store and append through the ``record_*`` interface.

    **Spill mode.** ``spill_to`` takes a segment sink (see
    :meth:`repro.store.RunStore.trace_sink`): whenever the live columns
    reach ``segment_events`` entries, the leading ``segment_events`` events
    are sealed into a ``(footer, blobs)`` segment — byte- and
    boundary-identical to what :meth:`export_segments` would have produced
    on the full trace — written through the sink, and dropped from memory,
    so peak trace memory is bounded by one segment regardless of run size.
    While spilling, ``len``/``kind_counts`` cover the whole trace (sealed
    footers plus the live tail) but the event-level queries only see the
    unspilled tail; call :meth:`finalize_spill` after the run to seal the
    tail and get the :class:`repro.store.StoredTrace` view over everything
    (``SynchronousNetwork.run`` does this automatically and puts the stored
    view on its :class:`RunResult`).
    """

    __slots__ = (
        "enabled",
        "_kinds",
        "_rounds",
        "_node_ids",
        "_peer_ids",
        "_payloads",
        "_details",
        "_spill",
        "_segment_events",
        "_spilled_footers",
    )

    def __init__(
        self,
        events: Iterable[TraceEvent] | None = None,
        enabled: bool = True,
        *,
        spill_to: Any = None,
        segment_events: int = DEFAULT_SEGMENT_EVENTS,
    ) -> None:
        if segment_events < 1:
            raise ValueError("segment_events must be positive")
        self.enabled = enabled
        self._spill = spill_to
        self._segment_events = segment_events
        self._spilled_footers: list[dict] = []
        self._kinds = array("B")
        self._rounds = array("q")
        self._node_ids: list[NodeId | None] = []
        self._peer_ids: list[NodeId | None] = []
        self._payloads: list[Payload | None] = []
        self._details: list[Any] = []
        if events:
            # Constructor seeding stores the events regardless of `enabled`
            # (matching the pre-columnar dataclass, whose `events` field was
            # independent of the flag); `enabled` only gates *recording*.
            for event in events:
                self._append(
                    event.kind,
                    event.round_index,
                    event.node_id,
                    event.peer_id,
                    event.payload,
                    event.detail,
                )

    # -- recording -------------------------------------------------------------

    def _append(
        self,
        kind: EventKind,
        round_index: int,
        node_id: NodeId | None,
        peer_id: NodeId | None,
        payload: Payload | None,
        detail: Any,
    ) -> None:
        self._kinds.append(_KIND_CODE[kind])
        self._rounds.append(round_index)
        self._node_ids.append(node_id)
        self._peer_ids.append(peer_id)
        self._payloads.append(payload)
        self._details.append(detail)
        if self._spill is not None and len(self._kinds) >= self._segment_events:
            self._drain_spill()

    def record(self, event: TraceEvent) -> None:
        """Append a pre-built event (the non-hot-path entry point)."""

        if self.enabled:
            self._append(
                event.kind,
                event.round_index,
                event.node_id,
                event.peer_id,
                event.payload,
                event.detail,
            )

    def record_event(
        self,
        kind: EventKind,
        round_index: int,
        node_id: NodeId | None = None,
        peer_id: NodeId | None = None,
        payload: Payload | None = None,
        detail: Any = None,
    ) -> None:
        """Append one event straight onto the columns (no object built)."""

        if self.enabled:
            self._append(kind, round_index, node_id, peer_id, payload, detail)

    def _extend_round(
        self, kind: EventKind, round_index: int, batches: Sequence[Batch]
    ) -> None:
        """Append every (batch, destination) event, one extension per column.

        Sends put the sender in the node column and the destination in the
        peer column; deliveries swap the two.
        """

        senders, payloads, dest_lists = zip(*batches)
        dests = list(chain.from_iterable(dest_lists))
        total = len(dests)
        counts = list(map(len, dest_lists))
        if counts.count(1) != len(counts):
            senders = _repeat_each(senders, counts)
            payloads = _repeat_each(payloads, counts)
        if kind is EventKind.MESSAGE_SENT:
            nodes, peers = senders, dests
        else:
            nodes, peers = dests, senders
        self._kinds.frombytes(_KIND_BYTE[kind] * total)
        self._rounds.extend(array("q", (round_index,)) * total)
        self._node_ids.extend(nodes)
        self._peer_ids.extend(peers)
        self._payloads.extend(payloads)
        self._details.extend(repeat(None, total))

    def _record_round(
        self, kind: EventKind, round_index: int, batches: Sequence[Batch]
    ) -> None:
        if not (self.enabled and batches):
            return
        if self._spill is None:
            self._extend_round(kind, round_index, batches)
            return
        # Seal after the fan-out that fills a segment, before appending the
        # next one: the live tail stays within one segment plus one fan-out.
        limit = self._segment_events
        live = len(self._kinds)
        start = 0
        for stop, (_, _, dests) in enumerate(batches, 1):
            live += len(dests)
            if live >= limit:
                self._extend_round(kind, round_index, batches[start:stop])
                self._drain_spill()
                start, live = stop, len(self._kinds)
        if start < len(batches):
            self._extend_round(kind, round_index, batches[start:])

    def record_sends_columnar(
        self, round_index: int, batches: Sequence[Batch]
    ) -> None:
        """Append one ``MESSAGE_SENT`` event per (batch, destination).

        ``batches`` is the round's ``(sender, payload, dests)`` list.
        Equivalent to recording ``TraceEvent(MESSAGE_SENT, round_index,
        node_id=sender, peer_id=dest, payload=payload)`` for each batch in
        order and each ``dest`` in order, but as one extension per column.
        """

        self._record_round(EventKind.MESSAGE_SENT, round_index, batches)

    def record_deliveries_columnar(
        self, round_index: int, batches: Sequence[Batch]
    ) -> None:
        """Append one ``MESSAGE_DELIVERED`` event per (batch, destination).

        Equivalent to recording ``TraceEvent(MESSAGE_DELIVERED,
        round_index, node_id=dest, peer_id=sender, payload=payload)`` for
        each batch in order and each ``dest`` in order, but as one
        extension per column.
        """

        self._record_round(EventKind.MESSAGE_DELIVERED, round_index, batches)

    # -- persistence hooks -----------------------------------------------------

    def _segment_slice(self, start: int, stop: int) -> tuple[dict, dict[str, bytes]]:
        """Project events ``[start, stop)`` onto a ``(footer, blobs)`` pair."""

        kinds = self._kinds[start:stop].tobytes()
        rounds = self._rounds[start:stop]
        footer = {
            "events": stop - start,
            "kind_counts": _count_kinds(kinds),
            "round_min": min(rounds),
            "round_max": max(rounds),
        }
        blobs = {
            "kinds": kinds,
            "rounds": rounds.tobytes(),
            "nodes": pickle.dumps(self._node_ids[start:stop], protocol=4),
            "peers": pickle.dumps(self._peer_ids[start:stop], protocol=4),
            "payloads": pickle.dumps(self._payloads[start:stop], protocol=4),
            "details": pickle.dumps(self._details[start:stop], protocol=4),
        }
        return footer, blobs

    def export_segments(
        self, *, max_events: int = DEFAULT_SEGMENT_EVENTS
    ) -> list[tuple[dict, dict[str, bytes]]]:
        """Slice the columns into ``(footer, blobs)`` segments for persistence.

        Each segment covers up to ``max_events`` consecutive events.  The
        footer is a small JSON-safe index — event count, per-kind counts
        (by :class:`EventKind` value) and the round range — that lets a
        reader decide *without touching the blobs* whether a segment can
        contain anything a query wants; the run store keeps footers in a
        queryable column and loads blobs lazily.  ``kinds``/``rounds``
        blobs are raw array bytes (native byte order); the object columns
        (node/peer ids, payloads, details) are pickled lists, so payload
        sharing within a segment survives via the pickle memo.  An empty
        trace exports zero segments.

        A spilling trace already streamed its segments through the sink;
        exporting it again would double-persist, so it refuses.
        """

        if max_events < 1:
            raise ValueError("max_events must be positive")
        if self._spill is not None:
            raise ValueError(
                "trace is spilling to a store; its segments are already "
                "persisted — use finalize_spill() instead of export_segments()"
            )
        return [
            self._segment_slice(start, min(start + max_events, len(self._kinds)))
            for start in range(0, len(self._kinds), max_events)
        ]

    # -- spill mode ------------------------------------------------------------

    @property
    def spilling(self) -> bool:
        return self._spill is not None

    @property
    def spilled_segment_count(self) -> int:
        return len(self._spilled_footers)

    @property
    def live_events(self) -> int:
        """Events currently held in memory (the unspilled tail)."""

        return len(self._kinds)

    def _seal_segment(self, stop: int) -> None:
        """Seal the leading ``stop`` events through the sink and drop them."""

        footer, blobs = self._segment_slice(0, stop)
        self._spill.write(len(self._spilled_footers), footer, blobs)
        self._spilled_footers.append(footer)
        del self._kinds[:stop]
        del self._rounds[:stop]
        del self._node_ids[:stop]
        del self._peer_ids[:stop]
        del self._payloads[:stop]
        del self._details[:stop]

    def _drain_spill(self) -> None:
        while len(self._kinds) >= self._segment_events:
            self._seal_segment(self._segment_events)

    def finalize_spill(self):
        """Seal the live tail and return the stored, fully queryable view.

        The returned object is whatever the sink's ``stored_trace()``
        yields — for a :meth:`repro.store.RunStore.trace_sink` that is a
        :class:`repro.store.StoredTrace` whose query answers are
        bit-identical to an in-memory trace of the same run.
        """

        if self._spill is None:
            raise ValueError("trace has no spill sink to finalize")
        if self._kinds:
            self._seal_segment(len(self._kinds))
        return self._spill.stored_trace()

    @classmethod
    def from_segment(cls, blobs: dict[str, bytes]) -> "Trace":
        """Rebuild one exported segment as a standalone query-able trace."""

        trace = cls()
        trace._kinds.frombytes(blobs["kinds"])
        trace._rounds.frombytes(blobs["rounds"])
        trace._node_ids = pickle.loads(blobs["nodes"])
        trace._peer_ids = pickle.loads(blobs["peers"])
        trace._payloads = pickle.loads(blobs["payloads"])
        trace._details = pickle.loads(blobs["details"])
        return trace

    # -- materialisation -------------------------------------------------------

    def _view(self, index: int) -> TraceEvent:
        return TraceEvent(
            _KIND_BY_CODE[self._kinds[index]],
            self._rounds[index],
            self._node_ids[index],
            self._peer_ids[index],
            self._payloads[index],
            self._details[index],
        )

    @property
    def events(self) -> list[TraceEvent]:
        """Every event, materialised (kept for backward compatibility)."""

        return [self._view(i) for i in range(len(self._kinds))]

    def event(self, index: int) -> TraceEvent:
        """The event at ``index``, materialised on demand."""

        if index < 0 or index >= len(self._kinds):
            raise IndexError(index)
        return self._view(index)

    def first_difference(self, other: "Trace") -> int | None:
        """Index of the first event at which two traces differ.

        Compared column-wise (kind, round, node, peer, payload, detail)
        without materialising events until a mismatch; a shared prefix
        with differing lengths diverges at the shorter length, identical
        traces return ``None``.  The per-segment primitive behind
        :meth:`repro.store.RunStore.diff`'s trace section.
        """

        n = min(len(self._kinds), len(other._kinds))
        for i in range(n):
            if (
                self._kinds[i] != other._kinds[i]
                or self._rounds[i] != other._rounds[i]
                or self._node_ids[i] != other._node_ids[i]
                or self._peer_ids[i] != other._peer_ids[i]
                or self._payloads[i] != other._payloads[i]
                or self._details[i] != other._details[i]
            ):
                return i
        if len(self._kinds) != len(other._kinds):
            return n
        return None

    def __len__(self) -> int:
        if self._spilled_footers:
            return sum(f["events"] for f in self._spilled_footers) + len(
                self._kinds
            )
        return len(self._kinds)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(self._view, range(len(self._kinds)))

    # -- queries ---------------------------------------------------------------

    def of_kind(self, kind: EventKind) -> list[TraceEvent]:
        code = _KIND_CODE[kind]
        return [self._view(i) for i, c in enumerate(self._kinds) if c == code]

    def for_node(self, node_id: NodeId) -> list[TraceEvent]:
        return [
            self._view(i) for i, n in enumerate(self._node_ids) if n == node_id
        ]

    def in_round(self, round_index: int) -> list[TraceEvent]:
        return [
            self._view(i) for i, r in enumerate(self._rounds) if r == round_index
        ]

    def where(self, predicate: Callable[[TraceEvent], bool]) -> list[TraceEvent]:
        return [e for e in self if predicate(e)]

    def decisions(self) -> list[TraceEvent]:
        return self.of_kind(EventKind.NODE_DECIDED)

    def first(self, kind: EventKind) -> TraceEvent | None:
        try:
            return self._view(self._kinds.index(_KIND_CODE[kind]))
        except ValueError:
            return None

    def kind_counts(self) -> dict[str, int]:
        """Event counts per kind value (cheap: scans the byte column only).

        On a spilling trace this covers sealed footers plus the live tail,
        so the totals always describe the whole run.
        """

        totals = _count_kinds(self._kinds.tobytes())
        for footer in self._spilled_footers:
            for value, count in footer["kind_counts"].items():
                totals[value] = totals.get(value, 0) + count
        return {k.value: totals[k.value] for k in EventKind if k.value in totals}

    # -- aggregation -----------------------------------------------------------

    def accumulate_aggregate(
        self,
        groups: dict,
        codes: frozenset[int] | None,
        by: str,
        reducers: Sequence[str],
    ) -> None:
        """Fold this trace's columns into a ``{group key: [tallies]}`` dict.

        The accumulation primitive behind :meth:`aggregate` — and behind
        :meth:`repro.store.db.StoredTrace.aggregate`, which calls it once
        per loaded segment and merges into one shared dict.  Group keys are
        kind *codes* for ``by="kind"`` (formatted to values by
        :func:`format_aggregate_rows`), raw column values otherwise.  No
        :class:`TraceEvent` is materialised.
        """

        kinds = self._kinds
        keys = (
            kinds
            if by == "kind"
            else self._rounds if by == "round" else self._node_ids
        )
        slots = len(reducers)
        count_slot = reducers.index("count") if "count" in reducers else None
        bytes_slot = (
            reducers.index("payload_bytes")
            if "payload_bytes" in reducers
            else None
        )
        payloads = self._payloads
        for i in range(len(kinds)):
            if codes is not None and kinds[i] not in codes:
                continue
            key = keys[i]
            tally = groups.get(key)
            if tally is None:
                tally = groups[key] = [0] * slots
            if count_slot is not None:
                tally[count_slot] += 1
            if bytes_slot is not None:
                payload = payloads[i]
                if payload is not None:
                    tally[bytes_slot] += payload_nbytes(payload)

    def aggregate(
        self,
        kinds=None,
        *,
        by: str = "round",
        reduce="count",
    ) -> list[dict]:
        """Group-and-reduce straight on the columns (no event objects).

        ``kinds`` filters to one :class:`EventKind` or an iterable of them
        (``None`` keeps every kind); ``by`` groups by ``"round"``,
        ``"node"`` or ``"kind"``; ``reduce`` names one or more reducers —
        ``"count"`` (events per group) and/or ``"payload_bytes"``
        (serialised payload bytes per group, via
        :func:`repro.sim.messages.payload_nbytes`; events without a
        payload contribute zero).  Returns one JSON-safe row per group,
        e.g. ``{"round": 3, "count": 120, "payload_bytes": 5400}`` —
        ready for :mod:`repro.analysis.tables` renderers and pivots.
        """

        codes, reducers = check_aggregate_args(kinds, by, reduce)
        groups: dict = {}
        self.accumulate_aggregate(groups, codes, by, reducers)
        return format_aggregate_rows(groups, by, reducers)

    def select(
        self,
        *,
        kind: EventKind | None = None,
        round_index: int | None = None,
        node_id: NodeId | None = None,
    ) -> list[TraceEvent]:
        """Events matching every given filter, in recording order.

        The conjunction the streaming trace endpoint applies per segment;
        filters are tested on the raw columns and only matching events are
        materialised.
        """

        code = _KIND_CODE[kind] if kind is not None else None
        out: list[TraceEvent] = []
        for i in range(len(self._kinds)):
            if code is not None and self._kinds[i] != code:
                continue
            if round_index is not None and self._rounds[i] != round_index:
                continue
            if node_id is not None and self._node_ids[i] != node_id:
                continue
            out.append(self._view(i))
        return out
