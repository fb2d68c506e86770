"""Run-time metrics collected by the simulator.

The harness uses these counters to report the quantities the paper's
discussion section talks about (message complexity, round complexity) and
to compare the id-only algorithms against the known-(n, f) baselines in
experiment E9.

Like the trace backend (:mod:`repro.sim.events`), per-round counters live
in parallel ``array('q')`` columns rather than one dataclass per round:
:class:`RoundMetrics` is a mutable *view* onto one row of the columnar
store, materialised lazily by :attr:`RunMetrics.rounds` and handed out by
:meth:`RunMetrics.start_round` as the network's per-round write cursor.
Reads and writes through a view hit the columns directly, so
``metrics.rounds[-1].messages_delivered`` keeps working unchanged while
summaries (:attr:`RunMetrics.total_messages`, …) become single column
sums.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable

from .messages import NodeId

__all__ = ["RoundMetrics", "RunMetrics", "DecisionRecord"]


#: Column order of the per-round counter store; also the (keyword)
#: argument order of the :class:`RoundMetrics` compatibility constructor.
_ROUND_FIELDS = (
    "round_index",
    "messages_sent",
    "broadcasts",
    "unicasts",
    "messages_delivered",
    "active_nodes",
    "byzantine_nodes",
    "halted_nodes",
    "payload_bytes",
)


class _RoundStore:
    """Parallel per-round counter columns (one ``array('q')`` per field)."""

    __slots__ = _ROUND_FIELDS

    def __init__(self) -> None:
        for name in _ROUND_FIELDS:
            setattr(self, name, array("q"))

    def append_round(self, round_index: int) -> None:
        self.round_index.append(round_index)
        for name in _ROUND_FIELDS[1:]:
            getattr(self, name).append(0)

    def __len__(self) -> int:
        return len(self.round_index)


class RoundMetrics:
    """Counters for a single simulated round (a view into the columns).

    Constructing one directly creates a standalone single-row store, so the
    pre-columnar ``RoundMetrics(round_index=..., messages_sent=...)`` shape
    keeps working for tests and external callers; the views handed out by
    :class:`RunMetrics` all share the run's store.
    """

    __slots__ = ("_store", "_index")

    def __init__(
        self,
        round_index: int = 0,
        messages_sent: int = 0,
        broadcasts: int = 0,
        unicasts: int = 0,
        messages_delivered: int = 0,
        active_nodes: int = 0,
        byzantine_nodes: int = 0,
        halted_nodes: int = 0,
        payload_bytes: int = 0,
    ) -> None:
        store = _RoundStore()
        store.append_round(round_index)
        self._store = store
        self._index = 0
        self.messages_sent = messages_sent
        self.broadcasts = broadcasts
        self.unicasts = unicasts
        self.messages_delivered = messages_delivered
        self.active_nodes = active_nodes
        self.byzantine_nodes = byzantine_nodes
        self.halted_nodes = halted_nodes
        self.payload_bytes = payload_bytes

    @classmethod
    def _attached(cls, store: _RoundStore, index: int) -> "RoundMetrics":
        view = cls.__new__(cls)
        view._store = store
        view._index = index
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={getattr(self, name)}" for name in _ROUND_FIELDS)
        return f"RoundMetrics({fields})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundMetrics):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in _ROUND_FIELDS
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "round": self.round_index,
            "messages_sent": self.messages_sent,
            "broadcasts": self.broadcasts,
            "unicasts": self.unicasts,
            "messages_delivered": self.messages_delivered,
            "active_nodes": self.active_nodes,
            "byzantine_nodes": self.byzantine_nodes,
            "halted_nodes": self.halted_nodes,
            "payload_bytes": self.payload_bytes,
        }


def _column_property(name: str) -> property:
    def getter(self: RoundMetrics) -> int:
        return getattr(self._store, name)[self._index]

    def setter(self: RoundMetrics, value: int) -> None:
        getattr(self._store, name)[self._index] = value

    return property(getter, setter)


for _name in _ROUND_FIELDS:
    setattr(RoundMetrics, _name, _column_property(_name))
del _name


@dataclass(frozen=True)
class DecisionRecord:
    """When and what a node decided."""

    node_id: NodeId
    round_index: int
    value: Any


class RunMetrics:
    """Aggregated counters for a whole simulation run."""

    __slots__ = (
        "_round_store",
        "per_node_sent",
        "per_node_delivered",
        "decisions",
        "peak_payload_bytes",
    )

    def __init__(self) -> None:
        self._round_store = _RoundStore()
        self.per_node_sent: Counter = Counter()
        self.per_node_delivered: Counter = Counter()
        self.decisions: list[DecisionRecord] = []
        #: Largest single payload seen (serialised bytes); 0 unless payload
        #: accounting is enabled on the network.
        self.peak_payload_bytes = 0

    @property
    def rounds(self) -> list[RoundMetrics]:
        """Per-round counter views, materialised lazily from the columns."""

        store = self._round_store
        return [RoundMetrics._attached(store, i) for i in range(len(store))]

    # -- recording -----------------------------------------------------------

    def start_round(self, round_index: int) -> RoundMetrics:
        store = self._round_store
        store.append_round(round_index)
        return RoundMetrics._attached(store, len(store) - 1)

    def record_sends(
        self, node_id: NodeId, fanout: int, broadcasts: int, unicasts: int
    ) -> None:
        """Account one node's send actions of the current round.

        ``fanout`` is the number of messages they put on the wire (one per
        destination).  The network calls this once per sending node per
        round; deliveries it counts itself, in ``per_node_delivered`` and
        the round's ``messages_delivered``.
        """

        store = self._round_store
        if not len(store):
            return
        store.messages_sent[-1] += fanout
        store.broadcasts[-1] += broadcasts
        store.unicasts[-1] += unicasts
        self.per_node_sent[node_id] += fanout

    def record_payload(self, nbytes: int, copies: int) -> None:
        """Account one send action's payload: ``nbytes`` × ``copies`` wire bytes.

        Called by the network once per send action when its payload
        accounting is enabled, so byte totals do not depend on how delivery
        is filed, just like message counts.
        """

        store = self._round_store
        if not len(store):
            return
        store.payload_bytes[-1] += nbytes * copies
        if nbytes > self.peak_payload_bytes:
            self.peak_payload_bytes = nbytes

    def record_decision(self, node_id: NodeId, round_index: int, value: Any) -> None:
        self.decisions.append(DecisionRecord(node_id, round_index, value))

    # -- persistence hooks -----------------------------------------------------

    def export_columns(self) -> dict[str, bytes]:
        """Dump the per-round counter columns as raw ``array('q')`` bytes.

        One blob per :data:`_ROUND_FIELDS` entry, in native byte order —
        the run store records the writing machine's byte order and
        refuses to open a store written with the other one, so the blobs
        round-trip exactly through :meth:`from_columns`.
        """

        store = self._round_store
        return {name: getattr(store, name).tobytes() for name in _ROUND_FIELDS}

    @classmethod
    def from_columns(
        cls,
        columns: dict[str, bytes],
        *,
        per_node_sent: dict | None = None,
        per_node_delivered: dict | None = None,
        decisions: Iterable[tuple] = (),
        peak_payload_bytes: int = 0,
    ) -> "RunMetrics":
        """Rebuild a :class:`RunMetrics` from :meth:`export_columns` blobs.

        ``decisions`` takes ``(node_id, round_index, value)`` triples;
        the per-node mappings restore the cross-round counters.  The
        result compares equal to the original instance.
        """

        metrics = cls()
        store = metrics._round_store
        for name in _ROUND_FIELDS:
            getattr(store, name).frombytes(columns.get(name, b""))
        metrics.per_node_sent = Counter(per_node_sent or {})
        metrics.per_node_delivered = Counter(per_node_delivered or {})
        metrics.decisions = [DecisionRecord(*triple) for triple in decisions]
        metrics.peak_payload_bytes = peak_payload_bytes
        return metrics

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunMetrics):
            return NotImplemented
        ours, theirs = self._round_store, other._round_store
        return (
            all(
                getattr(ours, name) == getattr(theirs, name)
                for name in _ROUND_FIELDS
            )
            and self.per_node_sent == other.per_node_sent
            and self.per_node_delivered == other.per_node_delivered
            and self.decisions == other.decisions
            and self.peak_payload_bytes == other.peak_payload_bytes
        )

    # -- summaries -------------------------------------------------------------

    @property
    def total_rounds(self) -> int:
        return len(self._round_store)

    @property
    def total_messages(self) -> int:
        return sum(self._round_store.messages_sent)

    @property
    def total_broadcasts(self) -> int:
        return sum(self._round_store.broadcasts)

    @property
    def total_payload_bytes(self) -> int:
        return sum(self._round_store.payload_bytes)

    def messages_per_round(self) -> list[int]:
        return list(self._round_store.messages_sent)

    def decision_round(self, node_id: NodeId) -> int | None:
        """The round in which ``node_id`` first decided, or ``None``."""

        for record in self.decisions:
            if record.node_id == node_id:
                return record.round_index
        return None

    def decision_rounds(self) -> dict[NodeId, int]:
        """First decision round per node."""

        result: dict[NodeId, int] = {}
        for record in self.decisions:
            result.setdefault(record.node_id, record.round_index)
        return result

    def latest_decision_round(self) -> int | None:
        rounds = self.decision_rounds()
        return max(rounds.values()) if rounds else None

    def summary(self) -> dict[str, Any]:
        return {
            "rounds": self.total_rounds,
            "messages": self.total_messages,
            "broadcasts": self.total_broadcasts,
            "payload_bytes": self.total_payload_bytes,
            "peak_payload_bytes": self.peak_payload_bytes,
            "decisions": len(self.decision_rounds()),
            "last_decision_round": self.latest_decision_round(),
        }

    def as_dict(self) -> dict[str, Any]:
        """A JSON-serialisable dump (summary plus per-round counters).

        Used by the machine-readable result paths of the harness so run
        metrics can be archived and diffed alongside aggregated rows.
        """

        return {
            "summary": self.summary(),
            "per_round": [r.as_dict() for r in self.rounds],
            "per_node_sent": {str(k): int(v) for k, v in sorted(self.per_node_sent.items())},
            "per_node_delivered": {
                str(k): int(v) for k, v in sorted(self.per_node_delivered.items())
            },
        }
