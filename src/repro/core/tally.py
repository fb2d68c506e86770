"""Batch tallies over a round's traffic.

Every id-only algorithm reduces a round's inbox to a handful of *support
tallies*: how many distinct senders backed a value (consensus), echoed a
``(message, source)`` pair (reliable broadcast), vouched for a candidate
identifier (the rotor-coordinator), or spoke for an ``(instance, type)``
slot (parallel consensus).  Those reductions used to live inline in each
protocol's hot loop, re-scanning the inbox object-by-object per node per
round.  This module factors them out behind entry points that apply a
build to the inbox (:meth:`repro.sim.messages.Inbox.apply`), keyed by
the build and its arguments.  Each build runs over the inbox's columns
(:meth:`~repro.sim.messages.Inbox.columns`): it visits the round's
*distinct* payloads once, and each payload's support is the length of
its sender list, built once per inbox.  In a synchronous broadcast-only
round every recipient shares one inbox, and in a round with unicasts
every recipient of the same rows does, so each tally is computed once
per distinct inbox and arguments rather than once per node.

Result contract
---------------
Results are exactly what a direct loop over ``inbox.items()`` would
build: result dicts preserve first-occurrence insertion order (the
payload table lists payloads in first-row order, and a repeated payload
never introduces a new key, so iterating distinct payloads visits keys in
row order), every count is a built-in ``int`` (a stray ``np.int64`` inside
a payload would change its pickled size and break the
shared-vs-per-destination payload accounting), and sender sets contain
built-in ``int`` node ids.  The property suite (``tests/test_tally.py``)
keeps that loop as its reference and pins equality — including insertion
order — over randomised rounds.
"""

from __future__ import annotations

from itertools import chain
from time import perf_counter
from typing import Any, Callable, Hashable

from ..sim.messages import Inbox, NodeId, Payload

__all__ = [
    "NO_VALUE",
    "value_support",
    "field_support",
    "candidate_support",
    "init_senders",
    "scan_index",
    "control_pairs",
    "profile_snapshot",
    "reset_profile",
]

#: Sentinel for :func:`scan_index` classifiers: the payload marks its
#: sender as having spoken for the key but carries no countable value.
NO_VALUE = object()

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


def _timed(inbox: Inbox, build: Callable[..., Any], *args: Hashable) -> Any:
    """``build(inbox, *args)``, its time added to the build profile."""

    start = perf_counter()
    try:
        return build(inbox, *args)
    finally:
        _PROFILE["seconds"] += perf_counter() - start
        _PROFILE["builds"] += 1


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

    return inbox.apply(_timed, _field_support_build, message_type, fields)


def _field_support_build(
    inbox: Inbox, message_type: type, fields: tuple[str, ...]
) -> dict[Hashable, int]:
    single = fields[0] if len(fields) == 1 else None
    _sender_rows, _payload_rows, table = inbox.columns()
    senders = inbox.payload_senders()
    support: dict[Hashable, int] = {}
    for index, payload in enumerate(table):
        if isinstance(payload, message_type):
            if single is not None:
                key = getattr(payload, single)
            else:
                key = tuple(getattr(payload, name) for name in fields)
            count = len(senders[index])
            previous = support.get(key)
            support[key] = count if previous is None else previous + count
    return support


# ---------------------------------------------------------------------------
# Candidate support — the rotor-coordinator echo wave
# ---------------------------------------------------------------------------


def candidate_support(
    inbox: Inbox, gossip_type: type, echo_type: type
) -> dict[Hashable, int]:
    """``candidate → distinct-sender count`` from gossip adds + legacy echoes.

    A sender backing the same candidate through several payloads (a gossip
    *and* a legacy echo, or duplicate entries inside one ``adds`` tuple)
    counts once — the ``(sender, candidate)`` pair is deduplicated exactly
    as the original per-candidate sender sets did.  Gossip anchors are not
    counted: they re-state old echoes for resynchronisation, and counting
    them would let a replayed anchor manufacture fresh support.
    """

    return inbox.apply(_timed, _candidate_support_build, gossip_type, echo_type)


def _candidate_support_build(
    inbox: Inbox, gossip_type: type, echo_type: type
) -> dict[Hashable, int]:
    _sender_rows, _payload_rows, table = inbox.columns()
    senders = inbox.payload_senders()
    by_candidate: dict[Hashable, list[int]] = {}
    for index, payload in enumerate(table):
        if isinstance(payload, gossip_type):
            for candidate in dict.fromkeys(payload.adds):
                by_candidate.setdefault(candidate, []).append(index)
        elif isinstance(payload, echo_type):
            by_candidate.setdefault(payload.candidate, []).append(index)
    support: dict[Hashable, int] = {}
    for candidate, indexes in by_candidate.items():
        if len(indexes) == 1:
            # Senders within one payload's rows are already distinct.
            support[candidate] = len(senders[indexes[0]])
        else:
            # The same candidate backed through several distinct payloads
            # whose sender sets may overlap — count exactly.
            support[candidate] = len(set(chain.from_iterable(
                senders[index] for index in indexes
            )))
    return support


# ---------------------------------------------------------------------------
# Init-sender index — who opened with a RotorInit
# ---------------------------------------------------------------------------


def init_senders(inbox: Inbox, init_type: type) -> tuple[NodeId, ...]:
    """Sorted ids of every sender that delivered an ``init_type`` payload."""

    return inbox.apply(_timed, _init_senders_build, init_type)


def _init_senders_build(inbox: Inbox, init_type: type) -> tuple[NodeId, ...]:
    _sender_rows, _payload_rows, table = inbox.columns()
    senders = inbox.payload_senders()
    return tuple(sorted(set(chain.from_iterable(
        senders[index]
        for index, payload in enumerate(table)
        if isinstance(payload, init_type)
    ))))


# ---------------------------------------------------------------------------
# (instance, type) scan index — parallel consensus
# ---------------------------------------------------------------------------


def scan_index(
    inbox: Inbox,
    classify: Callable[[Payload], tuple[Hashable, Any] | None],
) -> tuple[dict[Hashable, dict[Hashable, int]], dict[Hashable, frozenset[NodeId]]]:
    """One-pass ``(support, spoken)`` index over classified payloads.

    ``classify(payload)`` returns ``None`` (ignore the payload), ``(key,
    NO_VALUE)`` (the sender spoke for ``key`` without a countable value —
    the explicit "no preference" statements) or ``(key, value)``.  The
    result maps each key to its per-value distinct-sender counts and to
    the frozen set of senders that spoke for it at all.  ``support`` key
    order is first occurrence among *valued* rows — parallel consensus
    derives instance creation order from it, which reaches stored-output
    dict order.  ``classify`` is part of the key, so it must be a
    module-level function.
    """

    return inbox.apply(_timed, _scan_index_build, classify)


def _scan_index_build(
    inbox: Inbox, classify: Callable[[Payload], tuple[Hashable, Any] | None]
) -> tuple[dict[Hashable, dict[Hashable, int]], dict[Hashable, frozenset[NodeId]]]:
    _sender_rows, _payload_rows, table = inbox.columns()
    senders = inbox.payload_senders()
    support: dict[Hashable, dict[Hashable, int]] = {}
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
        count = len(senders[index])
        previous = per_value.get(value)
        per_value[value] = count if previous is None else previous + count
    spoken = {
        key: frozenset(chain.from_iterable(senders[index] for index in indexes))
        for key, indexes in groups.items()
    }
    return support, spoken


# ---------------------------------------------------------------------------
# Control-plane rows — total order's membership/event intake
# ---------------------------------------------------------------------------


def control_pairs(
    inbox: Inbox, bulk_types: tuple[type, ...]
) -> tuple[tuple[NodeId, Payload], ...]:
    """The ``(sender, payload)`` rows whose payload is *not* bulk traffic.

    Total order's membership/event intake only cares about the O(events)
    control payloads, but the batched consensus wrappers from every sender
    dominate the row count; filtering once per round (instead of per node)
    removes the O(n²) scan.  Row order is preserved exactly.
    """

    return inbox.apply(_timed, _control_pairs_build, bulk_types)


def _control_pairs_build(
    inbox: Inbox, bulk_types: tuple[type, ...]
) -> tuple[tuple[NodeId, Payload], ...]:
    sender_rows, payload_rows, table = inbox.columns()
    keep = [type(payload) not in bulk_types for payload in table]
    if not any(keep):
        return ()
    return tuple(
        (sender, table[index])
        for sender, index in zip(sender_rows, payload_rows)
        if keep[index]
    )
