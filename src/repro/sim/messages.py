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
  and a deterministic receiver-side reconstruction.  The encoder state is
  shared, not kept per node: the echoed set is an interned frozenset and
  the emission count is kept modulo the anchor period, both in the rotor
  core's memo key, so correct nodes in equal states encode a round's
  relays once per inbox and hold one echoed-set object.
* **Byte accounting** — :func:`payload_nbytes` reports (and caches) the
  serialised size of a payload, which the network uses for the opt-in
  message-volume metrics tracked by ``benchmarks/bench_scaling.py``.

Derived views of a round's traffic (support indexes, routing tables, the
``allowed``-sender restriction of :meth:`Inbox.restricted`) are memoized
*on the inbox* via :meth:`Inbox.memo`: in a synchronous run every
receiver of a broadcast-only round shares one :class:`Inbox` object, and
in a round with unicasts every receiver of the same rows does, so a pure
derivation is computed once per distinct inbox instead of once per node.
A node's state transition is memoized the same way when its key holds
every input that can differ between the nodes reading the inbox, as the
rotor core's does.  The derived inboxes — :meth:`Inbox.restricted` and the per-key split of
container payloads, :meth:`Inbox.split` — are built from the parent's
columns: no payload the parent filed is hashed again, and a container's
inner payloads are hashed once per distinct container, not once per row.
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

    The round is stored as columns: a table of the round's *distinct*
    payloads, a column of sender ids and a column of payload-table indexes
    — one row per retained ``(sender, payload)`` pair.  Rows are grouped by
    sender (senders in first-occurrence order, each sender's payloads in
    first-occurrence order), which is exactly the order :meth:`items`
    yields, and the table lists payloads in the order of their first row.
    Equal payloads from different senders share one table entry, so every
    such row points at the first sender's instance.  Payload identity is
    therefore an integer compare, which is what lets :mod:`repro.core.tally`
    reduce the round to support counts over the columns.  The per-sender
    tuples behind the object API (:meth:`payloads_from`, :meth:`senders_of`,
    …) are built lazily on first use.
    """

    __slots__ = ("_table", "_sender_rows", "_payload_rows", "_by_sender",
                 "_payload_senders", "_senders", "_memo")

    def __init__(self, by_sender: Mapping[NodeId, Iterable[Payload]] | None = None):
        index_of: dict[Payload, int] = {}
        table: list[Payload] = []
        sender_rows: list[NodeId] = []
        payload_rows: list[int] = []
        for sender, payloads in (by_sender or {}).items():
            start = len(payload_rows)
            for payload in payloads:
                try:
                    index = index_of.get(payload)
                except TypeError:
                    # Unhashable payloads break the model's contract but are
                    # still filed, by equality against the table.
                    index = _unhashable_index(table, payload)
                else:
                    if index is None:
                        index_of[payload] = index = len(table)
                        table.append(payload)
                payload_rows.append(index)
            count = len(payload_rows) - start
            if count == 1:
                sender_rows.append(sender)
            elif count:
                # Collapse the sender's duplicates, keeping first occurrences.
                kept = list(dict.fromkeys(payload_rows[start:]))
                payload_rows[start:] = kept
                sender_rows += [sender] * len(kept)
        self._set_columns(table, sender_rows, payload_rows)

    def _set_columns(
        self, table: list[Payload], sender_rows: list[NodeId], payload_rows: list[int]
    ) -> None:
        self._table = table
        self._sender_rows = sender_rows
        self._payload_rows = payload_rows
        self._senders = frozenset(sender_rows)
        self._by_sender: dict[NodeId, tuple[Payload, ...]] | None = None
        self._payload_senders: list[list[NodeId]] | None = None
        self._memo: dict | None = None

    @classmethod
    def _from_columns(
        cls, table: list[Payload], sender_rows: list[NodeId], payload_rows: list[int]
    ) -> "Inbox":
        """The inbox over ready-made columns, which must already be in the
        form ``Inbox(by_sender)`` builds: rows grouped by sender, each
        sender's payloads distinct, the table in first-row order."""

        inbox = cls.__new__(cls)
        inbox._set_columns(table, sender_rows, payload_rows)
        return inbox

    # -- basic accessors -------------------------------------------------

    def columns(self) -> tuple[list[NodeId], list[int], list[Payload]]:
        """``(sender_rows, payload_rows, payload_table)`` — parallel columns.

        Row ``i`` states that ``sender_rows[i]`` delivered
        ``payload_table[payload_rows[i]]``; rows appear in :meth:`items`
        order.  Consumers must not mutate the lists.
        """

        return self._sender_rows, self._payload_rows, self._table

    def payload_senders(self) -> list[list[NodeId]]:
        """For each table entry, the senders that delivered it, in row order.

        Built once per inbox.  A sender delivers each distinct payload at
        most once, so a list's length *is* the payload's distinct-sender
        support count.  Consumers must not mutate the lists.
        """

        senders = self._payload_senders
        if senders is None:
            senders = [[] for _ in self._table]
            for sender, index in zip(self._sender_rows, self._payload_rows):
                senders[index].append(sender)
            self._payload_senders = senders
        return senders

    def _grouped(self) -> dict[NodeId, tuple[Payload, ...]]:
        grouped = self._by_sender
        if grouped is None:
            table = self._table
            lists: dict[NodeId, list[Payload]] = {}
            for sender, index in zip(self._sender_rows, self._payload_rows):
                payloads = lists.get(sender)
                if payloads is None:
                    lists[sender] = payloads = []
                payloads.append(table[index])
            grouped = {sender: tuple(p) for sender, p in lists.items()}
            self._by_sender = grouped
        return grouped

    @property
    def senders(self) -> frozenset[NodeId]:
        """Identifiers of every node that delivered at least one message."""

        return self._senders

    def payloads_from(self, sender: NodeId) -> tuple[Payload, ...]:
        """All distinct payloads delivered by ``sender`` this round."""

        return self._grouped().get(sender, ())

    def items(self) -> Iterator[tuple[NodeId, Payload]]:
        """Iterate over ``(sender, payload)`` pairs."""

        table = self._table
        for sender, index in zip(self._sender_rows, self._payload_rows):
            yield sender, table[index]

    def __len__(self) -> int:
        return len(self._sender_rows)

    def __bool__(self) -> bool:
        return bool(self._sender_rows)

    def __contains__(self, sender: NodeId) -> bool:
        return sender in self.senders

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Inbox({self._grouped()!r})"

    def memo(self, key: Hashable, factory: "Callable[[Inbox], Any]") -> Any:
        """Cache ``factory(self)`` on this inbox under ``key``.

        An inbox is immutable, so any pure derivation of its contents (a
        payload index, a per-instance routing table) can be computed once
        and shared by every consumer — crucially including *different
        receivers* in a synchronous run, where a broadcast-only round
        hands the same ``Inbox`` object to every node and a round with
        unicasts hands one to every node with the same rows.  The cache
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

        The build filters this inbox's rows by sender and re-indexes the
        table: a kept table entry moves to the position of its first kept
        row.  No payload is hashed again, and the result has exactly the
        columns (and table objects) that rebuilding ``Inbox`` from the
        kept senders' payloads would give.
        """

        def build(inbox: "Inbox") -> "Inbox":
            if inbox.senders <= allowed:
                return inbox
            table = inbox._table
            moved = [-1] * len(table)
            kept_table: list[Payload] = []
            sender_rows: list[NodeId] = []
            payload_rows: list[int] = []
            for sender, index in zip(inbox._sender_rows, inbox._payload_rows):
                if sender in allowed:
                    new_index = moved[index]
                    if new_index < 0:
                        moved[index] = new_index = len(kept_table)
                        kept_table.append(table[index])
                    sender_rows.append(sender)
                    payload_rows.append(new_index)
            return Inbox._from_columns(kept_table, sender_rows, payload_rows)

        # The subset test is O(senders); memoizing even the "nothing to
        # strip" case makes the per-node cost of the common path a single
        # dict probe (frozensets cache their hash, and the interned
        # known-sender views make the key comparison an identity check).
        return self.memo(("wire-restricted", allowed), build)

    def split(
        self,
        container: type,
        groups: Callable[[Payload], Iterable[tuple[Hashable, Iterable[Payload]]]],
    ) -> dict[Hashable, "Inbox"]:
        """Per-key inboxes of the payloads carried inside ``container`` rows.

        ``groups(payload)`` lists a container payload's ``(key, payloads)``
        pairs.  Each key's inbox holds, for every sender, the payloads of
        all its containers' groups under that key, in row order and with
        duplicates collapsed, so it equals ``Inbox.from_pairs`` over the
        ``(sender, inner payload)`` pairs in row order.  Result keys are in
        first-occurrence order; a key whose groups are all empty gets an
        empty inbox.  Payloads of other types are ignored.

        The walk visits each distinct container once: its groups' inner
        payloads are filed in the key's table (hashed once, or matched by
        equality when unhashable) and their table indexes cached, so a
        container that ``k`` senders delivered is hashed once, not ``k``
        times.  Each sender's rows then extend its keys' columns; a sender
        that delivered several containers has its rows merged first.
        """

        table = self._table
        # Per key: its payload table and the index of each hashable entry.
        filings: dict[Hashable, tuple[list[Payload], dict[Payload, int]]] = {}
        # Per distinct container (outer table index): key -> inner indexes.
        filed: dict[int, dict[Hashable, list[int]]] = {}

        def file(entry: int) -> dict[Hashable, list[int]]:
            by_key: dict[Hashable, list[int]] = {}
            for key, payloads in groups(table[entry]):
                filing = filings.get(key)
                if filing is None:
                    filings[key] = filing = ([], {})
                key_table, key_index = filing
                rows = by_key.get(key)
                if rows is None:
                    by_key[key] = rows = []
                for payload in payloads:
                    try:
                        index = key_index.get(payload)
                    except TypeError:
                        index = _unhashable_index(key_table, payload)
                    else:
                        if index is None:
                            key_index[payload] = index = len(key_table)
                            key_table.append(payload)
                    rows.append(index)
            for key, rows in by_key.items():
                if len(rows) > 1:
                    by_key[key] = list(dict.fromkeys(rows))
            filed[entry] = by_key
            return by_key

        # Each sender's containers, in row order (rows are grouped by sender).
        delivered: list[tuple[NodeId, list[dict[Hashable, list[int]]]]] = []
        for sender, entry in zip(self._sender_rows, self._payload_rows):
            if type(table[entry]) is not container:
                continue
            by_key = filed.get(entry)
            if by_key is None:
                by_key = file(entry)
            if delivered and delivered[-1][0] == sender:
                delivered[-1][1].append(by_key)
            else:
                delivered.append((sender, [by_key]))

        columns: dict[Hashable, tuple[list[NodeId], list[int]]] = {
            key: ([], []) for key in filings
        }
        for sender, parts in delivered:
            if len(parts) == 1:
                by_key = parts[0]
            else:
                # Several containers: concatenate the sender's rows per key,
                # keeping first occurrences.
                by_key = {}
                for part in parts:
                    for key, rows in part.items():
                        by_key.setdefault(key, []).extend(rows)
                by_key = {key: list(dict.fromkeys(rows)) for key, rows in by_key.items()}
            for key, rows in by_key.items():
                sender_rows, payload_rows = columns[key]
                sender_rows += [sender] * len(rows)
                payload_rows += rows
        return {
            key: Inbox._from_columns(filing[0], *columns[key])
            for key, filing in filings.items()
        }

    # -- protocol-oriented queries ----------------------------------------

    def senders_of(self, payload: Payload) -> frozenset[NodeId]:
        """The distinct senders that delivered exactly ``payload``."""

        return frozenset(
            sender
            for sender, payloads in self._grouped().items()
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
            for sender, payloads in self._grouped().items()
            if any(predicate(p) for p in payloads)
        )

    def received_from(self, sender: NodeId, payload: Payload) -> bool:
        """True when ``sender`` delivered exactly ``payload`` this round."""

        return payload in self.payloads_from(sender)

    def group_by_type(self) -> dict[type, list[tuple[NodeId, Payload]]]:
        """Group ``(sender, payload)`` pairs by the payload's Python type."""

        grouped: dict[type, list[tuple[NodeId, Payload]]] = {}
        for sender, payload in self.items():
            grouped.setdefault(type(payload), []).append((sender, payload))
        return grouped

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "Inbox":
        """A new empty inbox.

        Every call makes a fresh one: protocols memoize derivations on
        inboxes, so an empty inbox shared process-wide would keep
        collecting memo entries for as long as the process lives.
        """

        return Inbox()

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[NodeId, Payload]]) -> "Inbox":
        """The inbox of ``(sender, payload)`` pairs, in any sender order.

        Broadcast-only and delayed rounds build their inboxes here.
        Senders may arrive interleaved (delayed delivery mixes batches
        from several send rounds), so the pairs are grouped by sender, in
        first-occurrence order, before ``Inbox(by_sender)`` builds the
        columns.
        """

        by_sender: dict[NodeId, list[Payload]] = {}
        for sender, payload in pairs:
            payloads = by_sender.get(sender)
            if payloads is None:
                by_sender[sender] = [payload]
            else:
                payloads.append(payload)
        return Inbox(by_sender)


def _unhashable_index(table: list[Payload], payload: Payload) -> int:
    """The table index of an unhashable ``payload``, appending it if new."""

    for index, entry in enumerate(table):
        if entry == payload:
            return index
    table.append(payload)
    return len(table) - 1


# Old name of the shared-round inbox, still imported by perfbench/tracing.py.
ColumnarInbox = Inbox
