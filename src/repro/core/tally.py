"""Batch tallies over a round's traffic — scalar reference + numpy twins.

Every id-only algorithm reduces a round's inbox to a handful of *support
tallies*: how many distinct senders backed a value (consensus), echoed a
``(message, source)`` pair (reliable broadcast), vouched for a candidate
identifier (the rotor-coordinator), or spoke for an ``(instance, type)``
slot (parallel consensus).  Those reductions used to live inline in each
protocol's hot loop, re-scanning the inbox object-by-object per node per
round.  This module factors them out behind inbox-memoized entry points
(:meth:`repro.sim.messages.Inbox.memo`) with two interchangeable
implementations:

* a **scalar reference** implementation — a direct port of the original
  per-protocol loops over ``inbox.items()``, used for plain object
  inboxes (per-destination delivery, restricted views, unit tests); and
* a **numpy** implementation used when the inbox is a
  :class:`~repro.sim.messages.ColumnarInbox` (the shared inbox of a
  synchronous broadcast-only round): the sender/payload-index columns are materialised as
  ``int64`` arrays once per round, and every tally becomes
  ``np.bincount``/``np.unique`` over those columns plus O(distinct
  payloads) of Python dispatch.

Equivalence contract
--------------------
The two implementations are *bit-identical* in every way protocol code
can observe: result dicts preserve the scalar first-occurrence insertion
order (payload tables are built in first-row order, and a repeated
payload never introduces a new key, so iterating distinct payloads visits
keys in exactly the row order the scalar loop does), every count leaving
this module is a built-in ``int`` (a stray ``np.int64`` inside a payload
would change its pickled size and break the shared-vs-per-destination
payload accounting), and sender sets contain built-in ``int`` node ids.  The
property suite (``tests/test_tally.py``) pins scalar-vs-numpy equality —
including insertion order — over randomised columns.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Hashable

import numpy as np

from ..sim.messages import ColumnarInbox, Inbox, NodeId, Payload

__all__ = [
    "NO_VALUE",
    "TALLY_BACKENDS",
    "backend_for",
    "value_support",
    "field_support",
    "candidate_support",
    "candidate_support_arrays",
    "init_senders",
    "scan_index",
    "control_pairs",
    "profile_snapshot",
    "reset_profile",
]

#: The two interchangeable tally implementations.
TALLY_BACKENDS = ("scalar", "numpy")

#: Sentinel for :func:`scan_index` classifiers: the payload marks its
#: sender as having spoken for the key but carries no countable value.
NO_VALUE = object()

# Memo keys for the shared column materialisations.
_NP_COLUMNS_KEY = "tally-np-columns"
_ROWCOUNTS_KEY = "tally-payload-rowcounts"
_SENDER_SLICES_KEY = "tally-sender-slices"

# Wall-clock spent inside tally builds (the ``--profile`` bench breakdown
# reports it per cell).  Accumulated unconditionally: builds run once per
# inbox, so the two ``perf_counter`` calls are noise.
_PROFILE = {"seconds": 0.0, "builds": 0}


def profile_snapshot() -> dict[str, Any]:
    """Cumulative seconds/builds spent constructing tallies."""

    return dict(_PROFILE)


def reset_profile() -> None:
    _PROFILE["seconds"] = 0.0
    _PROFILE["builds"] = 0


def backend_for(inbox: Inbox) -> str:
    """Which implementation a tally over ``inbox`` dispatches to."""

    return "numpy" if isinstance(inbox, ColumnarInbox) else "scalar"


def _memoized(inbox: Inbox, key: Hashable, build: Callable[[Inbox], Any]) -> Any:
    def timed(ib: Inbox) -> Any:
        start = perf_counter()
        try:
            return build(ib)
        finally:
            _PROFILE["seconds"] += perf_counter() - start
            _PROFILE["builds"] += 1

    return inbox.memo(key, timed)


# ---------------------------------------------------------------------------
# Column materialisations (numpy backend building blocks)
# ---------------------------------------------------------------------------


def _np_columns(inbox: ColumnarInbox) -> tuple[np.ndarray, np.ndarray]:
    """The sender and payload-index columns as ``int64`` arrays."""

    def build(ib: ColumnarInbox) -> tuple[np.ndarray, np.ndarray]:
        sender_rows, payload_rows, _table = ib.columns()
        return (
            np.asarray(sender_rows, dtype=np.int64),
            np.asarray(payload_rows, dtype=np.int64),
        )

    return inbox.memo(_NP_COLUMNS_KEY, build)


def _rowcounts(inbox: ColumnarInbox) -> np.ndarray:
    """Per-distinct-payload row counts.

    A sender delivers each distinct payload at most once (inbox dedup), so
    a payload's row count *is* its distinct-sender support count.
    """

    def build(ib: ColumnarInbox) -> np.ndarray:
        _senders, payload_rows = _np_columns(ib)
        _sr, _pr, table = ib.columns()
        return np.bincount(payload_rows, minlength=len(table))

    return inbox.memo(_ROWCOUNTS_KEY, build)


def _sender_slices(inbox: ColumnarInbox) -> list[np.ndarray]:
    """For each distinct payload, the array of sender ids that sent it."""

    def build(ib: ColumnarInbox) -> list[np.ndarray]:
        senders, payload_rows = _np_columns(ib)
        order = np.argsort(payload_rows, kind="stable")
        sorted_payloads = payload_rows[order]
        sorted_senders = senders[order]
        _sr, _pr, table = ib.columns()
        bounds = np.searchsorted(sorted_payloads, np.arange(len(table) + 1))
        return [
            sorted_senders[bounds[i] : bounds[i + 1]] for i in range(len(table))
        ]

    return inbox.memo(_SENDER_SLICES_KEY, build)


# ---------------------------------------------------------------------------
# Per-(type, value) support — consensus Prefer/StrongPrefer/Input waves
# ---------------------------------------------------------------------------


def value_support(inbox: Inbox, message_type: type) -> dict[Hashable, int]:
    """``value → distinct-sender count`` over payloads of ``message_type``.

    Key order is the first-occurrence order of each value in the round's
    ``(sender, payload)`` rows.  The shared result must not be mutated —
    callers that apply substitution rules copy it first.
    """

    return field_support(inbox, message_type, ("value",))


def field_support(
    inbox: Inbox, message_type: type, fields: tuple[str, ...]
) -> dict[Hashable, int]:
    """Distinct-sender counts keyed by payload field(s).

    ``fields`` names the attributes forming the key: one field keys by its
    bare value, several key by the attribute tuple (reliable broadcast
    keys echo support by ``(message, source)``).
    """

    return _memoized(
        inbox,
        ("tally-field-support", message_type, fields),
        lambda ib: _field_support_build(ib, message_type, fields),
    )


def _field_support_build(
    inbox: Inbox, message_type: type, fields: tuple[str, ...]
) -> dict[Hashable, int]:
    single = fields[0] if len(fields) == 1 else None
    if isinstance(inbox, ColumnarInbox):
        counts = _rowcounts(inbox)
        _senders, _rows, table = inbox.columns()
        support: dict[Hashable, int] = {}
        for index, payload in enumerate(table):
            if isinstance(payload, message_type):
                if single is not None:
                    key = getattr(payload, single)
                else:
                    key = tuple(getattr(payload, name) for name in fields)
                count = int(counts[index])
                previous = support.get(key)
                support[key] = count if previous is None else previous + count
        return support
    support = {}
    for _sender, payload in inbox.items():
        if isinstance(payload, message_type):
            if single is not None:
                key = getattr(payload, single)
            else:
                key = tuple(getattr(payload, name) for name in fields)
            support[key] = support.get(key, 0) + 1
    return support


# ---------------------------------------------------------------------------
# Candidate support — the rotor-coordinator echo wave
# ---------------------------------------------------------------------------


def candidate_support(
    inbox: Inbox,
    gossip_type: type,
    echo_type: type,
    *,
    memo_key: Hashable = "rotor-echo-index",
) -> dict[Hashable, int]:
    """``candidate → distinct-sender count`` from gossip adds + legacy echoes.

    A sender backing the same candidate through several payloads (a gossip
    *and* a legacy echo, or duplicate entries inside one ``adds`` tuple)
    counts once — the ``(sender, candidate)`` pair is deduplicated exactly
    as the original per-candidate sender sets did.
    """

    return _memoized(
        inbox, memo_key, lambda ib: _candidate_support_build(ib, gossip_type, echo_type)
    )


def _candidate_support_build(
    inbox: Inbox, gossip_type: type, echo_type: type
) -> dict[Hashable, int]:
    if isinstance(inbox, ColumnarInbox):
        counts = _rowcounts(inbox)
        _senders, _rows, table = inbox.columns()
        by_candidate: dict[Hashable, list[int]] = {}
        for index, payload in enumerate(table):
            if isinstance(payload, gossip_type):
                for candidate in dict.fromkeys(payload.adds):
                    by_candidate.setdefault(candidate, []).append(index)
            elif isinstance(payload, echo_type):
                by_candidate.setdefault(payload.candidate, []).append(index)
        support: dict[Hashable, int] = {}
        slices: list[np.ndarray] | None = None
        for candidate, indexes in by_candidate.items():
            if len(indexes) == 1:
                # Senders within one payload's rows are already distinct.
                support[candidate] = int(counts[indexes[0]])
            else:
                # Rare: the same candidate backed through several distinct
                # payloads whose sender sets may overlap — count exactly.
                if slices is None:
                    slices = _sender_slices(inbox)
                stacked = np.concatenate([slices[i] for i in indexes])
                support[candidate] = int(np.unique(stacked).size)
        return support
    sets: dict[Hashable, set[NodeId]] = {}
    for sender, payload in inbox.items():
        if isinstance(payload, gossip_type):
            for candidate in payload.adds:
                sets.setdefault(candidate, set()).add(sender)
        elif isinstance(payload, echo_type):
            sets.setdefault(payload.candidate, set()).add(sender)
    return {candidate: len(senders) for candidate, senders in sets.items()}


def candidate_support_arrays(
    inbox: Inbox,
    gossip_type: type,
    echo_type: type,
    *,
    memo_key: Hashable = "rotor-echo-index",
) -> tuple[list[Hashable], np.ndarray]:
    """``(sorted candidates, aligned count array)`` for batch thresholding.

    Derived from :func:`candidate_support` (so the counts are backend-
    independent); the rotor-coordinator's echo wave applies the quorum
    masks of :mod:`repro.core.quorums` to the whole candidate set at once
    instead of looping per candidate per node.
    """

    def build(ib: Inbox) -> tuple[list[Hashable], np.ndarray]:
        support = candidate_support(
            ib, gossip_type, echo_type, memo_key=memo_key
        )
        candidates = sorted(support)
        counts = np.fromiter(
            (support[c] for c in candidates), dtype=np.int64, count=len(candidates)
        )
        return candidates, counts

    return _memoized(inbox, (memo_key, "arrays"), build)


# ---------------------------------------------------------------------------
# Init-sender index — who opened with a RotorInit
# ---------------------------------------------------------------------------


def init_senders(
    inbox: Inbox, init_type: type, *, memo_key: Hashable = "rotor-init-index"
) -> tuple[NodeId, ...]:
    """Sorted ids of every sender that delivered an ``init_type`` payload."""

    return _memoized(inbox, memo_key, lambda ib: _init_senders_build(ib, init_type))


def _init_senders_build(inbox: Inbox, init_type: type) -> tuple[NodeId, ...]:
    if isinstance(inbox, ColumnarInbox):
        _senders, _rows, table = inbox.columns()
        indexes = [
            index
            for index, payload in enumerate(table)
            if isinstance(payload, init_type)
        ]
        if not indexes:
            return ()
        slices = _sender_slices(inbox)
        if len(indexes) == 1:
            senders = np.unique(slices[indexes[0]])
        else:
            senders = np.unique(np.concatenate([slices[i] for i in indexes]))
        return tuple(senders.tolist())
    return tuple(
        sorted(
            {
                sender
                for sender, payload in inbox.items()
                if isinstance(payload, init_type)
            }
        )
    )


# ---------------------------------------------------------------------------
# (instance, type) scan index — parallel consensus
# ---------------------------------------------------------------------------


def scan_index(
    inbox: Inbox,
    classify: Callable[[Payload], tuple[Hashable, Any] | None],
    *,
    memo_key: Hashable,
) -> tuple[dict[Hashable, dict[Hashable, int]], dict[Hashable, frozenset[NodeId]]]:
    """One-pass ``(support, spoken)`` index over classified payloads.

    ``classify(payload)`` returns ``None`` (ignore the payload), ``(key,
    NO_VALUE)`` (the sender spoke for ``key`` without a countable value —
    the explicit "no preference" statements) or ``(key, value)``.  The
    result maps each key to its per-value distinct-sender counts and to
    the frozen set of senders that spoke for it at all.  ``support`` key
    order is first occurrence among *valued* rows — parallel consensus
    derives instance creation order from it, which reaches stored-output
    dict order, so both backends must (and do) agree exactly.
    """

    return _memoized(inbox, memo_key, lambda ib: _scan_index_build(ib, classify))


def _scan_index_build(
    inbox: Inbox, classify: Callable[[Payload], tuple[Hashable, Any] | None]
) -> tuple[dict[Hashable, dict[Hashable, int]], dict[Hashable, frozenset[NodeId]]]:
    support: dict[Hashable, dict[Hashable, int]] = {}
    if isinstance(inbox, ColumnarInbox):
        counts = _rowcounts(inbox)
        _senders, _rows, table = inbox.columns()
        groups: dict[Hashable, list[int]] = {}
        for index, payload in enumerate(table):
            tag = classify(payload)
            if tag is None:
                continue
            key, value = tag
            groups.setdefault(key, []).append(index)
            if value is NO_VALUE:
                continue
            per_value = support.get(key)
            if per_value is None:
                support[key] = per_value = {}
            previous = per_value.get(value)
            count = int(counts[index])
            per_value[value] = count if previous is None else previous + count
        spoken: dict[Hashable, frozenset[NodeId]] = {}
        slices: list[np.ndarray] | None = None
        for key, indexes in groups.items():
            if slices is None:
                slices = _sender_slices(inbox)
            if len(indexes) == 1:
                spoken[key] = frozenset(slices[indexes[0]].tolist())
            else:
                spoken[key] = frozenset(
                    np.concatenate([slices[i] for i in indexes]).tolist()
                )
        return support, spoken
    spoken_sets: dict[Hashable, set[NodeId]] = {}
    for sender, payload in inbox.items():
        tag = classify(payload)
        if tag is None:
            continue
        key, value = tag
        speakers = spoken_sets.get(key)
        if speakers is None:
            spoken_sets[key] = speakers = set()
        speakers.add(sender)
        if value is NO_VALUE:
            continue
        per_value = support.get(key)
        if per_value is None:
            support[key] = per_value = {}
        per_value[value] = per_value.get(value, 0) + 1
    return support, {key: frozenset(s) for key, s in spoken_sets.items()}


# ---------------------------------------------------------------------------
# Control-plane rows — total order's membership/event intake
# ---------------------------------------------------------------------------


def control_pairs(
    inbox: Inbox,
    bulk_types: tuple[type, ...],
    *,
    memo_key: Hashable = "tally-control-pairs",
) -> tuple[tuple[NodeId, Payload], ...]:
    """The ``(sender, payload)`` rows whose payload is *not* bulk traffic.

    Total order's membership/event intake only cares about the O(events)
    control payloads, but the batched consensus wrappers from every sender
    dominate the row count; filtering once per round (instead of per node)
    removes the O(n²) scan.  Row order is preserved exactly.
    """

    return _memoized(
        inbox, (memo_key, bulk_types), lambda ib: _control_pairs_build(ib, bulk_types)
    )


def _control_pairs_build(
    inbox: Inbox, bulk_types: tuple[type, ...]
) -> tuple[tuple[NodeId, Payload], ...]:
    if isinstance(inbox, ColumnarInbox):
        sender_rows, payload_rows, table = inbox.columns()
        keep = [
            index
            for index, payload in enumerate(table)
            if type(payload) not in bulk_types
        ]
        if not keep:
            return ()
        if len(keep) == len(table):
            return tuple(inbox.items())
        wanted = set(keep)
        return tuple(
            (sender, table[index])
            for sender, index in zip(sender_rows, payload_rows)
            if index in wanted
        )
    return tuple(
        (sender, payload)
        for sender, payload in inbox.items()
        if type(payload) not in bulk_types
    )
