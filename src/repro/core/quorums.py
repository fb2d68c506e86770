"""Relative-quorum arithmetic used by every id-only algorithm.

The paper's central trick is to replace the unknown system size ``n`` and
fault bound ``f`` with ``nv`` — the number of distinct nodes the local node
has heard from so far — and to use the *relative* thresholds ``nv/3`` and
``2·nv/3`` where classic algorithms use ``f + 1`` and ``n − f``.  Section
III calls out the key observation: if every correct node broadcasts in a
round, then fewer than ``nv/3`` of the messages a correct node receives can
come from Byzantine nodes, irrespective of what the Byzantine nodes do.

This module centralises the threshold checks so every protocol spells the
comparison the same way the pseudocode does ("at least nv/3", "at least
2nv/3") and so the tests can probe the edge cases (non-divisible ``nv``,
empty views) in one place.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, TypeVar

__all__ = [
    "one_third",
    "two_thirds",
    "meets_one_third",
    "meets_two_thirds",
    "below_one_third",
    "values_meeting",
    "pick_supported",
    "best_supported_value",
    "max_faults_tolerated",
    "is_resilient",
]

V = TypeVar("V", bound=Hashable)


def one_third(nv: int) -> float:
    """The ``nv/3`` threshold (kept as an exact fraction, not floored)."""

    if nv < 0:
        raise ValueError("nv must be non-negative")
    return nv / 3.0


def two_thirds(nv: int) -> float:
    """The ``2·nv/3`` threshold (kept as an exact fraction, not floored)."""

    if nv < 0:
        raise ValueError("nv must be non-negative")
    return 2.0 * nv / 3.0


def meets_one_third(count: int, nv: int) -> bool:
    """True when ``count`` distinct senders satisfy "at least nv/3".

    A count of zero never meets the threshold, even when ``nv`` is zero:
    the algorithms only act on evidence actually received.
    """

    return count > 0 and count >= one_third(nv)


def meets_two_thirds(count: int, nv: int) -> bool:
    """True when ``count`` distinct senders satisfy "at least 2·nv/3"."""

    return count > 0 and count >= two_thirds(nv)


def below_one_third(count: int, nv: int) -> bool:
    """True when ``count`` is strictly below ``nv/3`` (Algorithm 3, line 15)."""

    return not meets_one_third(count, nv)


def values_meeting(
    support: Mapping[V, int] | Mapping[V, Iterable[object]],
    nv: int,
    *,
    fraction: str = "two_thirds",
) -> list[V]:
    """Values whose support count meets the requested relative threshold.

    ``support`` maps each value to either an integer count or a collection
    of distinct supporters.  The result is sorted (by ``repr`` for mixed
    types) so callers that need a deterministic pick can take the first
    element.
    """

    check = meets_two_thirds if fraction == "two_thirds" else meets_one_third
    winners: list[V] = []
    for value, raw in support.items():
        count = raw if isinstance(raw, int) else len(tuple(raw))
        if check(count, nv):
            winners.append(value)
    return sorted(winners, key=repr)


def pick_supported(support: Mapping[V, int], threshold: float) -> tuple[V | None, int]:
    """``(value, count)`` of the best value whose count meets ``threshold``.

    One pass over ``support`` (value → distinct-sender count).  A count
    meets the threshold when it is positive and at least ``threshold`` —
    pass :func:`one_third` or :func:`two_thirds` of ``nv`` so the float
    comparison is the one :func:`meets_one_third`/:func:`meets_two_thirds`
    make.  The tie-break is highest count, then smallest ``repr``, then
    first inserted; ``repr`` is only computed for values tied on count.
    Without a qualifying value the result is ``(None, 0)``.

    A two-thirds pick never needs a second pass: ``2nv/3 ≥ nv/3``, so it
    is the one-third winner when that winner's count meets ``2nv/3``, and
    otherwise there is none.
    """

    best: V | None = None
    best_count = 0
    best_repr: str | None = None
    for value, count in support.items():
        if count < best_count or count <= 0 or count < threshold:
            continue
        if count > best_count:
            best, best_count, best_repr = value, count, None
            continue
        if best_repr is None:
            best_repr = repr(best)
        value_repr = repr(value)
        if value_repr < best_repr:
            best, best_repr = value, value_repr
    return best, best_count


def best_supported_value(
    support: Mapping[V, int] | Mapping[V, Iterable[object]],
    nv: int,
    *,
    fraction: str = "two_thirds",
) -> V | None:
    """The single best-supported value meeting the threshold, or ``None``.

    Lemmas 9 and 10 guarantee that at most one value can meet ``2nv/3`` (and
    at most one *correct-origin* value can meet ``nv/3``), but a defensive
    deterministic tie-break — highest count, then smallest ``repr`` — keeps
    the implementation total even under model violations (which the
    resiliency-boundary experiment E5 deliberately provokes).  ``support``
    may map values to counts or to collections of distinct supporters;
    the pick itself is :func:`pick_supported`.
    """

    counts = {
        value: raw if isinstance(raw, int) else len(tuple(raw))
        for value, raw in support.items()
    }
    threshold = two_thirds(nv) if fraction == "two_thirds" else one_third(nv)
    return pick_supported(counts, threshold)[0]


def max_faults_tolerated(n: int) -> int:
    """The largest ``f`` with ``n > 3f`` — the optimal resiliency bound."""

    if n <= 0:
        return 0
    return (n - 1) // 3


def is_resilient(n: int, f: int) -> bool:
    """True when the configuration satisfies the paper's ``n > 3f``."""

    return n > 3 * f
