"""Message model and wire format for the synchronous round-based system.

The paper's model (Section IV, the *id-only model*) has these properties,
all of which are encoded here or in :mod:`repro.sim.network`:

* Computation proceeds in rounds; a message sent in round ``r`` is consumed
  in round ``r + 1`` (later for the semi-synchronous / asynchronous delay
  models used by the Section IX experiments).
* The identifier of the sender is attached to every message and cannot be
  forged on the direct channel — a Byzantine node can *claim* things about
  other nodes inside the payload, but the ``sender`` the network files
  with every message in flight is always truthful.
* Duplicate messages from the same node within one round are discarded;
  this is enforced by :class:`Inbox`, which stores at most one copy of each
  distinct payload per sender per round.

The wire-format contract
------------------------
Payloads are ordinary hashable Python values; protocol implementations in
:mod:`repro.core` use small frozen dataclasses (e.g. ``Echo``, ``Prefer``)
so that payload equality is structural and hashable.  Payloads whose size
grows with ``n`` must additionally follow the compact wire format this
module provides the building blocks for:

* **Cached digests** — an O(n)-sized payload is hashed many times on its
  way through the system (inbox deduplication per receiver, memoized index
  builds, intern lookups).  Decorating the frozen dataclass with
  :func:`cached_payload_hash` computes the structural hash once per
  instance and caches it on the object; the cache is stripped on pickling
  because Python string hashing is salted per process.
* **Interning** — identical payloads are routinely produced by *every*
  node in a round (candidate gossip during initialization, batched
  consensus traffic over a common event set).  :func:`intern_payload`
  collapses them onto one canonical instance in a process-wide table, so
  the digest is computed once system-wide and duplicate copies share
  memory.  Interning is semantics-free: equality and hashing behave
  exactly as without it.
* **Delta coding** — a payload that re-states an ever-growing set every
  round is wrong at the wire level; senders must announce *changes* plus
  a periodic full-set anchor instead.  The pattern's instance is
  candidate gossip (:class:`repro.core.rotor_coordinator.CandidateGossip`
  with its ``GossipEncoder``/``GossipDecoder``): candidate-set *adds* per
  round, a full sorted anchor with a cached digest every few emissions,
  and a deterministic receiver-side reconstruction.
* **Byte accounting** — :func:`payload_nbytes` reports (and caches) the
  serialised size of a payload, which the network uses for the opt-in
  message-volume metrics tracked by ``benchmarks/bench_scaling.py``.

Derived views of a round's traffic (support indexes, routing tables, the
``allowed``-sender restriction of :meth:`Inbox.restricted`) are memoized
*on the inbox* via :meth:`Inbox.memo`: in a synchronous run every
receiver of a broadcast-only round shares one :class:`Inbox` object, so a
pure derivation is computed once per round instead of once per node.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

NodeId = int
Payload = Hashable

__all__ = [
    "NodeId",
    "Payload",
    "Broadcast",
    "Unicast",
    "Outgoing",
    "Inbox",
    "ColumnarInbox",
    "cached_payload_hash",
    "intern_payload",
    "intern_table_size",
    "clear_intern_table",
    "payload_nbytes",
]

# ---------------------------------------------------------------------------
# Wire-format helpers: cached digests, interning, byte accounting
# ---------------------------------------------------------------------------

#: Prefix shared by every per-instance wire cache attribute.  Anything
#: starting with it is stripped on pickling — caches must never travel to
#: another process (string hashes are salted per process) and must not
#: inflate the serialised size :func:`payload_nbytes` reports.
_WIRE_CACHE_PREFIX = "_wire"

#: Instance attribute holding a payload's cached structural hash.
_HASH_ATTR = "_wire_hash"

#: Instance attribute holding a payload's cached serialised size.
_NBYTES_ATTR = "_wire_nbytes"


def cached_payload_hash(cls: type) -> type:
    """Class decorator caching the structural hash of a frozen dataclass.

    Apply *above* ``@dataclass(frozen=True)`` so the generated structural
    ``__hash__`` is wrapped.  The hash is computed on first use and stored
    on the instance; every ``_wire``-prefixed cache attribute (this hash,
    the :func:`payload_nbytes` size, any payload-specific digest cache) is
    stripped on pickling because hashes of strings are salted per process
    and serialised sizes are cheaper to recompute than to trust across
    processes.
    """

    structural_hash = cls.__hash__

    def __hash__(self) -> int:
        cached = self.__dict__.get(_HASH_ATTR)
        if cached is None:
            cached = structural_hash(self)
            object.__setattr__(self, _HASH_ATTR, cached)
        return cached

    def __getstate__(self):
        return {
            key: value
            for key, value in self.__dict__.items()
            if not key.startswith(_WIRE_CACHE_PREFIX)
        }

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


#: Soft cap on the intern table; reaching it clears the table, which is
#: always safe because interning never affects equality or hashing.
_INTERN_LIMIT = 1 << 16

_INTERN_TABLE: dict[Payload, Payload] = {}


def intern_payload(payload: Payload) -> Payload:
    """Return the canonical instance of ``payload`` from the intern table.

    The first caller's instance becomes canonical; later structurally-equal
    payloads (typically the same announcement produced by every node in a
    round) are dropped in favour of it, so any cached digest is computed
    once process-wide.  Unhashable values are returned unchanged.
    """

    table = _INTERN_TABLE
    try:
        canonical = table.get(payload)
    except TypeError:
        return payload
    if canonical is None:
        if len(table) >= _INTERN_LIMIT:
            table.clear()
        table[payload] = canonical = payload
    return canonical


def intern_table_size() -> int:
    """Number of canonical payloads currently interned."""

    return len(_INTERN_TABLE)


def clear_intern_table() -> None:
    """Drop every canonical payload (safe at any time; see the module docs)."""

    _INTERN_TABLE.clear()


def payload_nbytes(payload: Payload) -> int:
    """The serialised size of ``payload`` in bytes (cached when possible).

    Sizes are measured with :mod:`pickle` (highest protocol) and exclude
    envelope overhead, so they track the *payload* cost a real transport
    would pay per copy.  The measurement is cached on instances that allow
    attribute assignment (the frozen payload dataclasses do).
    """

    instance_dict = getattr(payload, "__dict__", None)
    if instance_dict is not None:
        cached = instance_dict.get(_NBYTES_ATTR)
        if cached is not None:
            return cached
    nbytes = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    if instance_dict is not None:
        try:
            object.__setattr__(payload, _NBYTES_ATTR, nbytes)
        except (AttributeError, TypeError):
            pass
    return nbytes


@dataclass(frozen=True)
class Broadcast:
    """Send ``payload`` to every node currently in the system (incl. self).

    This mirrors the paper's "broadcast" primitive: a correct node does not
    need to know who the recipients are; the network fans the message out to
    whoever is present in the delivery round.
    """

    payload: Payload


@dataclass(frozen=True)
class Unicast:
    """Send ``payload`` to a single, explicitly named destination.

    The paper allows a node to "send a message to a specific node that sent
    a message to the node before"; protocols only use this for targeted
    replies (e.g. the ``ack`` replies of Algorithm 6).  Byzantine adversary
    strategies use it freely to equivocate.
    """

    dest: NodeId
    payload: Payload


Outgoing = Broadcast | Unicast


class Inbox:
    """The set of messages a node receives at the start of one round.

    Messages are grouped by (truthful) sender identifier.  Duplicate
    payloads from the same sender in the same round are collapsed, matching
    the model's "duplicate messages from the same node in a round are simply
    discarded".
    """

    __slots__ = ("_by_sender", "_size", "_senders", "_memo")

    def __init__(self, by_sender: Mapping[NodeId, Iterable[Payload]] | None = None):
        collapsed: dict[NodeId, tuple[Payload, ...]] = {}
        if by_sender:
            for sender, payloads in by_sender.items():
                if not isinstance(payloads, (list, tuple)):
                    # the fallback below re-iterates, so a one-shot iterator
                    # must be materialised before the first attempt
                    payloads = list(payloads)
                if len(payloads) == 1:
                    # A single payload cannot be a duplicate — skip the
                    # dedup build (and its hashing) entirely.  With the
                    # batched total-order wrapper most senders deliver one
                    # large payload per round, so this is the common case.
                    collapsed[sender] = tuple(payloads)
                    continue
                try:
                    # Payloads are hashable by contract, so first-occurrence
                    # deduplication is a dict build rather than a quadratic
                    # membership scan over the per-sender list.
                    seen = tuple(dict.fromkeys(payloads))
                except TypeError:
                    unique: list[Payload] = []
                    for payload in payloads:
                        if payload not in unique:
                            unique.append(payload)
                    seen = tuple(unique)
                if seen:
                    collapsed[sender] = seen
        self._by_sender = collapsed
        self._size = -1
        self._senders: frozenset[NodeId] | None = None
        self._memo: dict | None = None

    # -- basic accessors -------------------------------------------------

    @property
    def senders(self) -> frozenset[NodeId]:
        """Identifiers of every node that delivered at least one message."""

        cached = self._senders
        if cached is None:
            cached = frozenset(self._by_sender)
            self._senders = cached
        return cached

    def payloads_from(self, sender: NodeId) -> tuple[Payload, ...]:
        """All distinct payloads delivered by ``sender`` this round."""

        return self._by_sender.get(sender, ())

    def items(self) -> Iterator[tuple[NodeId, Payload]]:
        """Iterate over ``(sender, payload)`` pairs."""

        for sender, payloads in self._by_sender.items():
            for payload in payloads:
                yield sender, payload

    def __len__(self) -> int:
        size = self._size
        if size < 0:
            size = sum(len(p) for p in self._by_sender.values())
            self._size = size
        return size

    def __bool__(self) -> bool:
        return bool(self._by_sender)

    def __contains__(self, sender: NodeId) -> bool:
        return sender in self._by_sender

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Inbox({dict(self._by_sender)!r})"

    def memo(self, key: Hashable, factory: "Callable[[Inbox], Any]") -> Any:
        """Cache ``factory(self)`` on this inbox under ``key``.

        An inbox is immutable, so any pure derivation of its contents (a
        payload index, a per-instance routing table) can be computed once
        and shared by every consumer — crucially including *different
        receivers* in a synchronous run, where a broadcast-only
        round hands the same ``Inbox`` object to every node.  The cache
        dies with the inbox; factories must not mutate the result.
        """

        cache = self._memo
        if cache is None:
            self._memo = cache = {}
        try:
            return cache[key]
        except KeyError:
            value = factory(self)
            cache[key] = value
            return value

    def restricted(self, allowed: frozenset[NodeId]) -> "Inbox":
        """This inbox with only the messages from ``allowed`` senders.

        Returns ``self`` when nothing needs stripping (the common case —
        protocols restrict to their known-sender sets, which usually cover
        everyone who spoke).  Otherwise the restriction is built once and
        memoized on this inbox keyed by ``allowed``, so in a synchronous
        run every node applying the same filter to the shared inbox
        reuses one restricted view — including its own memo cache, which is
        what lets downstream index builds stay once-per-round even in runs
        where Byzantine senders must be stripped.
        """

        def build(inbox: "Inbox") -> "Inbox":
            if inbox.senders <= allowed:
                return inbox
            kept = {
                sender: payloads
                for sender, payloads in inbox._by_sender.items()
                if sender in allowed
            }
            return Inbox._from_collapsed(kept)

        # The subset test is O(senders); memoizing even the "nothing to
        # strip" case makes the per-node cost of the common path a single
        # dict probe (frozensets cache their hash, and the interned
        # known-sender views make the key comparison an identity check).
        return self.memo(("wire-restricted", allowed), build)

    # -- protocol-oriented queries ----------------------------------------

    def senders_of(self, payload: Payload) -> frozenset[NodeId]:
        """The distinct senders that delivered exactly ``payload``."""

        return frozenset(
            sender
            for sender, payloads in self._by_sender.items()
            if payload in payloads
        )

    def count(self, payload: Payload) -> int:
        """Number of distinct senders that delivered exactly ``payload``."""

        return len(self.senders_of(payload))

    def senders_matching(
        self, predicate: Callable[[Payload], bool]
    ) -> frozenset[NodeId]:
        """Senders that delivered at least one payload satisfying ``predicate``."""

        return frozenset(
            sender
            for sender, payloads in self._by_sender.items()
            if any(predicate(p) for p in payloads)
        )

    def payloads_matching(
        self, predicate: Callable[[Payload], bool]
    ) -> list[tuple[NodeId, Payload]]:
        """``(sender, payload)`` pairs whose payload satisfies ``predicate``."""

        return [(s, p) for s, p in self.items() if predicate(p)]

    def received_from(self, sender: NodeId, payload: Payload) -> bool:
        """True when ``sender`` delivered exactly ``payload`` this round."""

        return payload in self._by_sender.get(sender, ())

    def group_by_type(self) -> dict[type, list[tuple[NodeId, Payload]]]:
        """Group ``(sender, payload)`` pairs by the payload's Python type."""

        grouped: dict[type, list[tuple[NodeId, Payload]]] = {}
        for sender, payload in self.items():
            grouped.setdefault(type(payload), []).append((sender, payload))
        return grouped

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "Inbox":
        return _EMPTY_INBOX

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[NodeId, Payload]]) -> "Inbox":
        by_sender: dict[NodeId, list[Payload]] = {}
        for sender, payload in pairs:
            by_sender.setdefault(sender, []).append(payload)
        return Inbox(by_sender)

    @classmethod
    def _from_collapsed(cls, by_sender: dict[NodeId, tuple[Payload, ...]]) -> "Inbox":
        """Wrap already-deduplicated per-sender tuples without re-hashing."""

        inbox = cls.__new__(cls)
        inbox._by_sender = by_sender
        inbox._size = -1
        inbox._senders = None
        inbox._memo = None
        return inbox


_EMPTY_INBOX = Inbox()


class ColumnarInbox(Inbox):
    """A shared broadcast-round inbox backed by parallel columns.

    Instead of the per-sender payload-tuple dict a plain :class:`Inbox`
    eagerly builds, this representation keeps the round's traffic as three
    parallel structures: a table of *distinct* payloads, a column of sender
    ids and a column of payload-table indexes — one row per retained
    ``(sender, payload)`` pair, in exactly the order :meth:`Inbox.items`
    would yield them.  Payload identity is therefore an integer compare,
    which is what lets :mod:`repro.core.tally` compute quorum counts and
    support tallies as ``np.bincount``/``np.unique`` batch operations over
    the columns.

    The object-based API is preserved bit-for-bit: ``_by_sender`` is
    materialised lazily on first use (``payloads_from``, ``restricted``,
    adversary strategies…), grouped identically to the dict a plain
    :class:`Inbox` would have built, so every consumer observes the same contents
    in the same order.
    """

    __slots__ = ("_payload_table", "_sender_rows", "_payload_rows",
                 "_sender_order", "_collapsed")

    @classmethod
    def from_staged(cls, staged: Iterable[tuple[NodeId, Payload, Any]]) -> "Inbox":
        """Build the shared inbox straight from staged send-batches.

        ``staged`` holds ``(sender, payload, dests)`` triples grouped by
        sender (one contiguous run per sender — the network stages one
        node's actions consecutively).  Duplicate payloads from the same
        sender are collapsed first-occurrence, matching ``Inbox(by_sender)``.
        Falls back to a plain :class:`Inbox` when a payload is unhashable
        or the batches are not sender-contiguous.
        """

        table: dict[Payload, int] = {}
        payload_table: list[Payload] = []
        sender_rows: list[NodeId] = []
        payload_rows: list[int] = []
        sender_order: list[NodeId] = []
        grouped = set()
        current: Any = _UNGROUPED
        seen: set[int] = set()
        try:
            for sender, payload, _dests in staged:
                if sender != current:
                    if sender in grouped:
                        raise _NotContiguous
                    grouped.add(sender)
                    current = sender
                    sender_order.append(sender)
                    seen = set()
                index = table.get(payload)
                if index is None:
                    table[payload] = index = len(payload_table)
                    payload_table.append(payload)
                elif index in seen:
                    continue
                seen.add(index)
                sender_rows.append(sender)
                payload_rows.append(index)
        except (TypeError, _NotContiguous):
            by_sender: dict[NodeId, list[Payload]] = {}
            for sender, payload, _dests in staged:
                by_sender.setdefault(sender, []).append(payload)
            return Inbox(by_sender)
        inbox = cls.__new__(cls)
        inbox._payload_table = payload_table
        inbox._sender_rows = sender_rows
        inbox._payload_rows = payload_rows
        inbox._sender_order = sender_order
        inbox._collapsed = None
        inbox._size = len(sender_rows)
        inbox._senders = None
        inbox._memo = None
        return inbox

    # The base class stores the per-sender dict in a slot; shadowing it
    # with a property keeps every inherited method working against the
    # lazily materialised grouping.
    @property
    def _by_sender(self) -> dict[NodeId, tuple[Payload, ...]]:
        collapsed = self._collapsed
        if collapsed is None:
            payloads = self._payload_table
            grouped: dict[NodeId, list[Payload]] = {
                sender: [] for sender in self._sender_order
            }
            for sender, index in zip(self._sender_rows, self._payload_rows):
                grouped[sender].append(payloads[index])
            collapsed = {
                sender: tuple(items) for sender, items in grouped.items()
            }
            self._collapsed = collapsed
        return collapsed

    def columns(self) -> tuple[list[NodeId], list[int], list[Payload]]:
        """``(sender_rows, payload_rows, payload_table)`` — parallel columns.

        Row ``i`` states that ``sender_rows[i]`` delivered
        ``payload_table[payload_rows[i]]``; rows appear in
        :meth:`Inbox.items` order.  Consumers must not mutate the lists.
        """

        return self._sender_rows, self._payload_rows, self._payload_table

    @property
    def senders(self) -> frozenset[NodeId]:
        cached = self._senders
        if cached is None:
            cached = frozenset(self._sender_order)
            self._senders = cached
        return cached

    def items(self) -> Iterator[tuple[NodeId, Payload]]:
        payloads = self._payload_table
        for sender, index in zip(self._sender_rows, self._payload_rows):
            yield sender, payloads[index]

    def __bool__(self) -> bool:
        return bool(self._sender_rows)

    def __contains__(self, sender: NodeId) -> bool:
        return sender in self.senders

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarInbox(rows={len(self._sender_rows)}, "
            f"payloads={len(self._payload_table)})"
        )


class _NotContiguous(Exception):
    """Internal: staged batches were not grouped by sender."""


_UNGROUPED = object()
