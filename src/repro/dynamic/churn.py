"""Churn schedules for dynamic-network experiments (Section XI).

A churn schedule describes when nodes join and leave a running system.  The
adversary of Section XI controls the join/leave pattern subject to the
single constraint that ``n > 3f`` holds at the start of every round; the
generator below enforces that constraint while producing randomised
schedules for experiments E8 and E10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..sim.messages import NodeId
from ..sim.rng import make_rng

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "generate_churn_schedule",
    "generate_flash_crowd_schedule",
]

#: Genesis identifiers are minted on these arithmetic progressions; the
#: generators guard caller-supplied ``id_pool`` ids against colliding with
#: them (a collision would silently merge a joiner with a genesis node).
_GENESIS_CORRECT_BASE, _GENESIS_CORRECT_STEP = 1_000_000, 37
_GENESIS_BYZANTINE_BASE, _GENESIS_BYZANTINE_STEP = 2_000_000, 41


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change."""

    round_index: int
    node_id: NodeId
    kind: str  # "join" or "leave"

    def __post_init__(self) -> None:
        if self.kind not in ("join", "leave"):
            raise ValueError(f"unknown churn event kind: {self.kind!r}")


@dataclass
class ChurnSchedule:
    """A validated sequence of joins and leaves.

    ``initial_correct`` / ``initial_byzantine`` describe the genesis
    membership; ``events`` the subsequent changes.  :meth:`membership_at`
    replays the schedule, which the tests use to check the ``n > 3f``
    invariant round by round.
    """

    initial_correct: tuple[NodeId, ...]
    initial_byzantine: tuple[NodeId, ...]
    events: tuple[ChurnEvent, ...] = ()
    byzantine_joiners: frozenset[NodeId] = frozenset()

    def joins(self) -> dict[int, list[NodeId]]:
        grouped: dict[int, list[NodeId]] = {}
        for event in self.events:
            if event.kind == "join":
                grouped.setdefault(event.round_index, []).append(event.node_id)
        return grouped

    def leaves(self) -> dict[int, list[NodeId]]:
        grouped: dict[int, list[NodeId]] = {}
        for event in self.events:
            if event.kind == "leave":
                grouped.setdefault(event.round_index, []).append(event.node_id)
        return grouped

    def is_byzantine(self, node_id: NodeId) -> bool:
        return node_id in self.initial_byzantine or node_id in self.byzantine_joiners

    def membership_at(self, round_index: int) -> tuple[set[NodeId], set[NodeId]]:
        """``(correct, byzantine)`` active at the start of ``round_index``."""

        correct = set(self.initial_correct)
        byzantine = set(self.initial_byzantine)
        for event in self.events:
            if event.round_index > round_index:
                continue
            target = byzantine if self.is_byzantine(event.node_id) else correct
            if event.kind == "join":
                target.add(event.node_id)
            else:
                target.discard(event.node_id)
        return correct, byzantine

    def satisfies_resiliency(self, horizon: int) -> bool:
        """True when ``n > 3f`` holds at the start of every round ≤ horizon."""

        for round_index in range(1, horizon + 1):
            correct, byzantine = self.membership_at(round_index)
            n = len(correct) + len(byzantine)
            if n <= 3 * len(byzantine):
                return False
        return True


def _genesis_membership(
    initial_correct: int, initial_byzantine: int
) -> tuple[set[NodeId], set[NodeId]]:
    correct = {
        _GENESIS_CORRECT_BASE + i * _GENESIS_CORRECT_STEP
        for i in range(initial_correct)
    }
    byzantine = {
        _GENESIS_BYZANTINE_BASE + i * _GENESIS_BYZANTINE_STEP
        for i in range(initial_byzantine)
    }
    return correct, byzantine


def _make_id_minter(
    id_pool: Iterator[NodeId] | None,
    rng: np.random.Generator,
    used: set[NodeId],
):
    """Fresh-identifier source that rejects collisions with live/genesis ids.

    Generated ids start at 20M (above both genesis progressions); pool ids
    are caller-supplied, so a pool id that collides with a genesis id or a
    previously issued one would silently merge two logically distinct
    nodes — that is a configuration error, reported loudly.
    """

    next_id = 20_000_000

    def fresh_id() -> NodeId:
        nonlocal next_id
        if id_pool is not None:
            node = next(id_pool)
            if node in used:
                raise ValueError(
                    f"id_pool yielded {node}, which collides with a genesis "
                    "or previously issued node id"
                )
            used.add(node)
            return node
        next_id += int(rng.integers(1, 50))
        used.add(next_id)
        return next_id

    return fresh_id


def generate_churn_schedule(
    *,
    initial_correct: int,
    initial_byzantine: int,
    rounds: int,
    join_rate: float = 0.1,
    leave_rate: float = 0.1,
    byzantine_join_fraction: float = 0.0,
    id_pool: Iterator[NodeId] | None = None,
    seed: int = 0,
    min_round: int = 3,
    leave_candidates: str = "live",
) -> ChurnSchedule:
    """Generate a random churn schedule that preserves ``n > 3f``.

    ``join_rate``/``leave_rate`` are per-round probabilities of one join /
    one leave.  Joins draw fresh identifiers (``id_pool`` ids are rejected
    if they collide with a genesis or already-issued id).  Leaves pick a
    random correct *current* member — by default any live correct node,
    later joiners included (``leave_candidates="live"``); pass
    ``leave_candidates="genesis"`` to restrict departures to nodes that
    were present at genesis, which keeps every joiner alive for the whole
    run.  Byzantine nodes never leave: removing them neither helps the
    adversary nor threatens the resiliency constraint, so the generator
    keeps them in place for a worst-case schedule.  Any candidate event
    that would violate ``n > 3f`` is dropped.
    """

    if leave_candidates not in ("live", "genesis"):
        raise ValueError(
            f"unknown leave_candidates {leave_candidates!r}; "
            "choose 'live' or 'genesis'"
        )
    rng = make_rng(seed)
    correct, byzantine = _genesis_membership(initial_correct, initial_byzantine)
    fresh_id = _make_id_minter(id_pool, rng, set(correct) | set(byzantine))
    events: list[ChurnEvent] = []
    byz_joiners: set[NodeId] = set()

    live_correct = set(correct)
    live_byzantine = set(byzantine)
    for round_index in range(min_round, rounds + 1):
        if rng.random() < join_rate:
            node = fresh_id()
            is_byz = rng.random() < byzantine_join_fraction
            n_after = len(live_correct) + len(live_byzantine) + 1
            f_after = len(live_byzantine) + (1 if is_byz else 0)
            if n_after > 3 * f_after:
                events.append(ChurnEvent(round_index, node, "join"))
                if is_byz:
                    byz_joiners.add(node)
                    live_byzantine.add(node)
                else:
                    live_correct.add(node)
        if rng.random() < leave_rate and len(live_correct) > 1:
            pool = (
                live_correct
                if leave_candidates == "live"
                else live_correct & correct
            )
            candidates = sorted(pool)
            if candidates:
                node = candidates[int(rng.integers(0, len(candidates)))]
                n_after = len(live_correct) - 1 + len(live_byzantine)
                if n_after > 3 * len(live_byzantine):
                    events.append(ChurnEvent(round_index, node, "leave"))
                    live_correct.discard(node)

    return ChurnSchedule(
        initial_correct=tuple(sorted(correct)),
        initial_byzantine=tuple(sorted(byzantine)),
        events=tuple(events),
        byzantine_joiners=frozenset(byz_joiners),
    )


def generate_flash_crowd_schedule(
    *,
    initial_correct: int,
    initial_byzantine: int,
    rounds: int,
    burst_round: int = 5,
    burst_size: int = 5,
    burst_byzantine_fraction: float = 0.0,
    exodus_round: int | None = None,
    exodus_fraction: float = 0.5,
    id_pool: Iterator[NodeId] | None = None,
    seed: int = 0,
) -> ChurnSchedule:
    """A flash-crowd schedule: a join burst, then an optional mass exodus.

    ``burst_size`` fresh nodes all join at ``burst_round`` (each Byzantine
    with probability ``burst_byzantine_fraction``, subject to ``n > 3f``
    after every admission — joins that would violate it are dropped).  If
    ``exodus_round`` is given, a ``exodus_fraction`` share of the then-live
    correct nodes — burst joiners first, the most flash-crowd-like
    pattern — leave together at that round, again subject to ``n > 3f``.

    This is the stress pattern random per-round churn almost never
    produces: the membership estimate ``nv`` at every correct node jumps
    by ``burst_size`` within one round, and then (optionally) collapses,
    which is exactly where relative-threshold bookkeeping is most likely
    to crack.
    """

    if burst_size < 0:
        raise ValueError("burst_size must be non-negative")
    if not 0.0 <= exodus_fraction <= 1.0:
        raise ValueError("exodus_fraction must be within [0, 1]")
    if not 1 <= burst_round <= rounds:
        raise ValueError("burst_round must fall within the run's rounds")
    if exodus_round is not None and not burst_round < exodus_round <= rounds:
        raise ValueError("exodus_round must fall after burst_round, within rounds")
    rng = make_rng(seed)
    correct, byzantine = _genesis_membership(initial_correct, initial_byzantine)
    fresh_id = _make_id_minter(id_pool, rng, set(correct) | set(byzantine))
    events: list[ChurnEvent] = []
    byz_joiners: set[NodeId] = set()

    live_correct = set(correct)
    live_byzantine = set(byzantine)
    burst_joiners: list[NodeId] = []
    for _ in range(burst_size):
        node = fresh_id()
        is_byz = rng.random() < burst_byzantine_fraction
        n_after = len(live_correct) + len(live_byzantine) + 1
        f_after = len(live_byzantine) + (1 if is_byz else 0)
        if n_after <= 3 * f_after:
            continue  # admitting this Byzantine joiner would break n > 3f
        events.append(ChurnEvent(burst_round, node, "join"))
        if is_byz:
            byz_joiners.add(node)
            live_byzantine.add(node)
        else:
            live_correct.add(node)
            burst_joiners.append(node)

    if exodus_round is not None:
        leavers = int(round(exodus_fraction * len(live_correct)))
        # Burst joiners churn out first; genesis nodes only if the exodus
        # is larger than the crowd that arrived.
        ordered = sorted(burst_joiners) + sorted(live_correct - set(burst_joiners))
        for node in ordered[:leavers]:
            if len(live_correct) <= 1:
                break
            n_after = len(live_correct) - 1 + len(live_byzantine)
            if n_after <= 3 * len(live_byzantine):
                break
            events.append(ChurnEvent(exodus_round, node, "leave"))
            live_correct.discard(node)

    return ChurnSchedule(
        initial_correct=tuple(sorted(correct)),
        initial_byzantine=tuple(sorted(byzantine)),
        events=tuple(events),
        byzantine_joiners=frozenset(byz_joiners),
    )
