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
:meth:`Trace.select_batches` yields plain row tuples in
:class:`TraceEvent` field order, so the service's trace stream encodes
the columns without building an event at all.

Sealed segments and the live tail
---------------------------------
A trace is a list of sealed segments followed by a live tail.  A sealed
segment is a footer (event count, per-kind counts, round range) plus a
``load(index)`` that reads its columns back as a tail-only trace; the
tail is the in-memory columns above.  An in-memory trace has no sealed
segments; a spilling trace seals one whenever its tail fills; a trace
read from the run store (:meth:`Trace.from_segments`) is sealed segments
only.  Each query is written once: it skips the sealed segments whose
footer cannot match, loads the rest one at a time, then reads the tail,
so it answers for the whole run whichever of the three it is.

Aggregation happens on the columns too: :meth:`Trace.aggregate` groups
events by round, node or kind and reduces them to counts or serialised
payload-byte tallies without materialising a single :class:`TraceEvent`.

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
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat, starmap
from typing import Any, Callable, Iterable, Iterator, Sequence

from .messages import NodeId, Payload, payload_nbytes

__all__ = [
    "Batch",
    "DEFAULT_SEGMENT_EVENTS",
    "EventKind",
    "TraceEvent",
    "Trace",
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


#: A query filter left open (``None`` cannot mean that: ``for_node(None)``
#: asks for the events that have no node).
_ANY = object()


# -- aggregation plumbing ----------------------------------------------------

#: Grouping axes and reducers ``aggregate`` understands.
AGGREGATE_GROUPS = ("round", "node", "kind")
AGGREGATE_REDUCERS = ("count", "payload_bytes")


def _check_aggregate_args(
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


def _format_aggregate_rows(
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
    """Sealed segments plus a live columnar tail, with :class:`TraceEvent` views.

    The constructor accepts an optional iterable of pre-built events (for
    tests and reference models); the network always starts from an empty
    store and append through the ``record_*`` interface.

    **Spill mode.** ``spill_to`` takes a segment sink (see
    :meth:`repro.store.RunStore.trace_sink`) with ``write(index, footer,
    blobs)`` and ``load(index)``: whenever the live columns reach
    ``segment_events`` entries, the leading ``segment_events`` events are
    sealed into a ``(footer, blobs)`` segment — byte- and
    boundary-identical to what :meth:`export_segments` would have produced
    on the full trace — written through the sink, and dropped from memory,
    so peak trace memory is bounded by one segment regardless of run size.
    Every query covers the whole trace at any time, reading sealed
    segments back through ``load``.  :meth:`finalize_spill` seals the tail
    after the run (``SynchronousNetwork.run`` does this automatically).

    **Segment caching.** ``of_kind``, ``in_round``, ``for_node``,
    ``first``, ``aggregate`` and iteration keep the sealed segments they
    load; ``select`` and ``select_batches`` keep none (a segment already
    kept is reused), so a stream holds one segment at a time.
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
        "_footers",
        "_load",
        "_segments",
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
        #: Sealed segments: their footers, the loader that reads one back
        #: as a tail-only trace, and the loaded segments queries keep.
        self._footers: list[dict] = []
        self._load: Callable[[int], Trace] | None = (
            None if spill_to is None else spill_to.load
        )
        self._segments: dict[int, Trace] = {}
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

        A spilling trace already streamed its segments through the sink,
        and a trace read from the store has them there; exporting either
        would double-persist, so it refuses.
        """

        if max_events < 1:
            raise ValueError("max_events must be positive")
        if self._spill is not None or self._footers:
            raise ValueError(
                "trace is spilling to a store or was read from one; its "
                "segments are already persisted — use finalize_spill() "
                "instead of export_segments()"
            )
        return [
            self._segment_slice(start, min(start + max_events, len(self._kinds)))
            for start in range(0, len(self._kinds), max_events)
        ]

    # -- sealed segments -------------------------------------------------------

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

    @classmethod
    def from_segments(
        cls, footers: Sequence[dict], load: Callable[[int], "Trace"]
    ) -> "Trace":
        """A trace of sealed segments only (what the run store returns):
        their footers, and ``load(index)`` to read one back as
        :meth:`from_segment` does."""

        trace = cls()
        trace._footers, trace._load = list(footers), load
        return trace

    @property
    def spilling(self) -> bool:
        return self._spill is not None

    @property
    def segment_count(self) -> int:
        return len(self._footers)

    @property
    def loaded_segment_count(self) -> int:
        """Sealed segments that queries loaded and keep."""

        return len(self._segments)

    @property
    def live_events(self) -> int:
        """Events currently held in memory (the live tail)."""

        return len(self._kinds)

    def _seal_segment(self, stop: int) -> None:
        """Seal the leading ``stop`` events through the sink and drop them."""

        footer, blobs = self._segment_slice(0, stop)
        self._spill.write(len(self._footers), footer, blobs)
        self._footers.append(footer)
        del self._kinds[:stop]
        del self._rounds[:stop]
        del self._node_ids[:stop]
        del self._peer_ids[:stop]
        del self._payloads[:stop]
        del self._details[:stop]

    def _drain_spill(self) -> None:
        while len(self._kinds) >= self._segment_events:
            self._seal_segment(self._segment_events)

    def finalize_spill(self) -> "Trace":
        """Seal the live tail through the sink and return this trace."""

        if self._spill is None:
            raise ValueError("trace has no spill sink to finalize")
        if self._kinds:
            self._seal_segment(len(self._kinds))
        return self

    def _segment(self, index: int, keep: bool = True) -> "Trace":
        """Sealed segment ``index``: the kept copy, else a fresh load that
        is kept only if ``keep``."""

        segment = self._segments.get(index)
        if segment is None:
            segment = self._load(index)
            if keep:
                self._segments[index] = segment
        return segment

    def _scan(
        self,
        query: Callable[["Trace"], Any],
        *,
        keep: bool,
        codes: Iterable[int] | None = None,
        round_index: Any = _ANY,
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(segment index, query(part))`` for each part in order.

        The parts are the sealed segments whose footer shows a kind in
        ``codes`` (``None``: any) and covers ``round_index``, loaded one at
        a time and dropped before their answer is yielded, then the live
        tail (index :attr:`segment_count`) if it holds any event.
        ``query`` reads the part's live columns.
        """

        values = None if codes is None else [_KIND_BY_CODE[c].value for c in codes]
        for index, footer in enumerate(self._footers):
            if values is not None and not any(
                footer["kind_counts"].get(value) for value in values
            ):
                continue
            if round_index is not _ANY and not (
                footer["round_min"] <= round_index <= footer["round_max"]
            ):
                continue
            yield index, query(self._segment(index, keep))
        if self._kinds:
            yield len(self._footers), query(self)

    # -- materialisation -------------------------------------------------------

    def _rows(self, indices: Sequence[int]) -> Iterator[tuple]:
        """Rows of the live events at ``indices``, in :class:`TraceEvent`
        field order (``TraceEvent(*row)`` is the event)."""

        kinds = map(_KIND_BY_CODE.__getitem__, map(self._kinds.__getitem__, indices))
        columns = (
            self._rounds, self._node_ids, self._peer_ids, self._payloads, self._details
        )
        return zip(kinds, *(map(column.__getitem__, indices) for column in columns))

    def _all_rows(self) -> Iterator[tuple]:
        return chain.from_iterable(
            rows
            for _, rows in self._scan(
                lambda part: part._rows(range(len(part._kinds))), keep=True
            )
        )

    @property
    def events(self) -> list[TraceEvent]:
        """Every event, materialised (kept for backward compatibility)."""

        return list(self)

    def event(self, index: int) -> TraceEvent:
        """The event at ``index``, materialised on demand."""

        if index < 0 or index >= len(self):
            raise IndexError(index)
        for segment_index, footer in enumerate(self._footers):
            if index < footer["events"]:
                return self._segment(segment_index).event(index)
            index -= footer["events"]
        return TraceEvent(*next(self._rows((index,))))

    def first_difference(self, other: "Trace") -> int | None:
        """Index of the first event at which two traces differ.

        Compared row by row without materialising events; a shared prefix
        with differing lengths diverges at the shorter length, identical
        traces return ``None``.  The per-segment primitive behind
        :meth:`repro.store.RunStore.diff`'s trace section.
        """

        for index, (mine, theirs) in enumerate(
            zip(self._all_rows(), other._all_rows())
        ):
            if mine != theirs:
                return index
        mine, theirs = len(self), len(other)
        return None if mine == theirs else min(mine, theirs)

    def __len__(self) -> int:
        return sum(footer["events"] for footer in self._footers) + len(self._kinds)

    def __iter__(self) -> Iterator[TraceEvent]:
        return starmap(TraceEvent, self._all_rows())

    # -- queries ---------------------------------------------------------------

    def _match(
        self, code: Any = _ANY, round_index: Any = _ANY, node_id: Any = _ANY
    ) -> Sequence[int]:
        """Indices of the live events whose kind code, round and node equal
        every given filter (``_ANY`` leaves a column open)."""

        hits: list[int] | None = None
        for column, wanted in (
            (self._kinds, code),
            (self._rounds, round_index),
            (self._node_ids, node_id),
        ):
            if wanted is _ANY:
                continue
            if hits is None:
                hits = [i for i, value in enumerate(column) if value == wanted]
            else:
                hits = [i for i in hits if column[i] == wanted]
        return range(len(self._kinds)) if hits is None else hits

    def _select(
        self,
        build: Callable[[Iterator[tuple]], list],
        keep: bool,
        kind: EventKind | None = None,
        round_index: Any = _ANY,
        node_id: Any = _ANY,
    ) -> Iterator[tuple[int, list]]:
        """``(segment index, build(matching rows))`` per part, pruned by
        footer."""

        code = _ANY if kind is None else _KIND_CODE[kind]
        return self._scan(
            lambda part: build(part._rows(part._match(code, round_index, node_id))),
            keep=keep,
            codes=None if kind is None else (code,),
            round_index=round_index,
        )

    def _events(self, keep: bool = True, **filters: Any) -> list[TraceEvent]:
        batches = self._select(
            lambda rows: list(starmap(TraceEvent, rows)), keep, **filters
        )
        return list(chain.from_iterable(events for _, events in batches))

    def of_kind(self, kind: EventKind) -> list[TraceEvent]:
        return self._events(kind=kind)

    def for_node(self, node_id: NodeId | None) -> list[TraceEvent]:
        return self._events(node_id=node_id)

    def in_round(self, round_index: int) -> list[TraceEvent]:
        return self._events(round_index=round_index)

    def where(self, predicate: Callable[[TraceEvent], bool]) -> list[TraceEvent]:
        return [e for e in self if predicate(e)]

    def decisions(self) -> list[TraceEvent]:
        return self.of_kind(EventKind.NODE_DECIDED)

    def _first_row(self, code: int) -> tuple | None:
        try:
            index = self._kinds.index(code)
        except ValueError:
            return None
        return next(self._rows((index,)))

    def first(self, kind: EventKind) -> TraceEvent | None:
        code = _KIND_CODE[kind]
        for _, row in self._scan(
            lambda part: part._first_row(code), keep=True, codes=(code,)
        ):
            if row is not None:
                return TraceEvent(*row)
        return None

    def kind_counts(self) -> dict[str, int]:
        """Event counts per kind value, in enum order, over the whole trace
        (sealed footers plus a scan of the tail's byte column)."""

        totals = Counter(_count_kinds(self._kinds.tobytes()))
        for footer in self._footers:
            totals.update(footer["kind_counts"])
        return {k.value: totals[k.value] for k in EventKind if k.value in totals}

    # -- aggregation -----------------------------------------------------------

    def _accumulate(
        self,
        groups: dict,
        codes: frozenset[int] | None,
        by: str,
        reducers: Sequence[str],
    ) -> None:
        """Fold the live columns into a ``{group key: [tallies]}`` dict.

        Group keys are kind *codes* for ``by="kind"``, raw column values
        otherwise.  No :class:`TraceEvent` is materialised.
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
        A ``kinds`` filter skips the sealed segments whose footer shows no
        matching event, and a ``by="kind"`` count loads none.
        """

        codes, reducers = _check_aggregate_args(kinds, by, reduce)
        if by == "kind" and set(reducers) == {"count"}:
            counts = self.kind_counts()
            return [
                {"kind": kind.value, "count": counts[kind.value]}
                for code, kind in enumerate(_KIND_BY_CODE)
                if kind.value in counts and (codes is None or code in codes)
            ]
        groups: dict = {}
        for _ in self._scan(
            lambda part: part._accumulate(groups, codes, by, reducers),
            keep=True,
            codes=codes,
        ):
            pass
        return _format_aggregate_rows(groups, by, reducers)

    def select(
        self,
        *,
        kind: EventKind | None = None,
        round_index: int | None = None,
        node_id: NodeId | None = None,
    ) -> list[TraceEvent]:
        """Events matching every given filter (``None`` leaves one open),
        in recording order; keeps no segment, as :meth:`select_batches`."""

        return self._events(
            False, kind=kind, round_index=_open(round_index), node_id=_open(node_id)
        )

    def select_batches(
        self,
        *,
        kind: EventKind | None = None,
        round_index: int | None = None,
        node_id: NodeId | None = None,
    ) -> Iterator[tuple[int, list[tuple]]]:
        """Yield ``(segment index, matching rows)`` one part at a time.

        The streaming primitive behind the service's ``/runs/<key>/trace``
        endpoint; rows are in :class:`TraceEvent` field order, so no event
        is built.  Sealed segments whose footers cannot match are skipped
        unloaded, the others are loaded unkept (a kept one is reused) and
        dropped before their batch is yielded; the live tail comes last.
        """

        return self._select(list, False, kind, _open(round_index), _open(node_id))


def _open(value: Any) -> Any:
    """A ``select`` filter: ``None`` leaves it open."""

    return _ANY if value is None else value
