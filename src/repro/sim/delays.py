"""Message-delay models.

The paper's algorithms assume a *synchronous* system: a message sent in
round ``r`` is delivered in round ``r + 1``.  Section IX proves that this
assumption is necessary — with unknown ``n`` and ``f``, consensus is
impossible in asynchronous systems (Lemma 14) and in semi-synchronous
systems where the delay bound Δ exists but is unknown (Lemma 15).

To reproduce those constructions the simulator supports pluggable delay
models.  A delay model maps each sent message to its delivery round; the
synchronous model is the default and is what every experiment other than
E6 uses.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .messages import NodeId

__all__ = [
    "DelayModel",
    "SynchronousDelay",
    "UniformRandomDelay",
    "HeavyTailDelay",
    "JitteredSynchronousDelay",
    "BoundedUnknownDelay",
    "PartitionDelay",
    "FixedScheduleDelay",
    "UNGROUPED_POLICIES",
]

#: How the group-based models treat nodes absent from ``groups``.
#:
#: ``"isolated"``
#:     An ungrouped node shares a group with nobody but itself: every
#:     message between an ungrouped node and any *other* node is treated
#:     as cross-group.  This is the default, and the safe semantics for
#:     churn — a joiner whose id was minted after the partition was
#:     constructed stays on its own side of the partition instead of
#:     tunnelling through it.
#: ``"default_group"``
#:     All ungrouped nodes share one implicit extra group (index
#:     ``len(groups)``).  This is the historical behaviour — every node
#:     absent from ``groups`` used to map to the sentinel ``-1`` and
#:     therefore compare equal to every other absent node, which let
#:     churn joiners bypass the Lemma 14/15 constructions entirely.  It
#:     is kept as an explicit opt-in so executions that relied on it can
#:     still be expressed (and searched over), but it is never implied.
UNGROUPED_POLICIES = ("isolated", "default_group")


def _index_groups(
    groups: tuple[frozenset[NodeId], ...],
) -> dict[NodeId, int]:
    """``node -> group index`` lookup; delivery is per-message, so the
    group membership scan must not be linear in the number of groups."""

    return {node: index for index, group in enumerate(groups) for node in group}


class DelayModel(abc.ABC):
    """Assigns a delivery round to every message."""

    @abc.abstractmethod
    def delivery_round(
        self,
        sender: NodeId,
        dest: NodeId,
        sent_round: int,
        rng: np.random.Generator,
    ) -> int:
        """Return the round in which the message is delivered (> sent_round)."""

    @property
    def synchronous(self) -> bool:
        """True when every message is delivered exactly one round later."""

        return False


class SynchronousDelay(DelayModel):
    """The paper's default model: delivery in the next round."""

    def delivery_round(
        self,
        sender: NodeId,
        dest: NodeId,
        sent_round: int,
        rng: np.random.Generator,
    ) -> int:
        return sent_round + 1

    @property
    def synchronous(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return "SynchronousDelay()"


@dataclass
class UniformRandomDelay(DelayModel):
    """Each message takes between 1 and ``max_delay`` rounds, uniformly.

    This models an *asynchronous-looking* network whose delays are finite
    but unpredictable.  Protocols that implicitly rely on the synchronous
    round structure (all of the paper's algorithms) can violate safety under
    this model; experiment E6 quantifies how often.
    """

    max_delay: int = 3

    def __post_init__(self) -> None:
        if self.max_delay < 1:
            raise ValueError("max_delay must be at least 1")

    def delivery_round(
        self,
        sender: NodeId,
        dest: NodeId,
        sent_round: int,
        rng: np.random.Generator,
    ) -> int:
        return sent_round + int(rng.integers(1, self.max_delay + 1))


@dataclass
class HeavyTailDelay(DelayModel):
    """Heavy-tailed (discretised Pareto) per-message delays.

    Most messages arrive in the next round, but the tail is long: the
    extra delay beyond one round is drawn from a Pareto distribution with
    shape ``alpha`` (smaller ``alpha`` → heavier tail) and scale
    ``scale``, truncated at ``max_delay`` total rounds so bounded
    experiments always observe every delivery eventually.  This models
    the bursty, congested networks real deployments see — occasional
    stragglers arriving many rounds late — which is exactly the regime
    where protocols that implicitly lean on the synchronous round
    structure start to misbehave.
    """

    alpha: float = 1.5
    scale: float = 0.5
    max_delay: int = 20

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be positive and finite")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive and finite")
        if self.max_delay < 1:
            raise ValueError("max_delay must be at least 1")

    def delivery_round(
        self,
        sender: NodeId,
        dest: NodeId,
        sent_round: int,
        rng: np.random.Generator,
    ) -> int:
        # Truncate while still a float: a deep-tail draw (tiny alpha, or a
        # large scale) can exceed float precision — even overflow to inf —
        # and int() would raise long before the min() could cap it.  For
        # in-range draws int(min(x, m)) == min(int(x), m), so the clamp
        # order does not change any previously valid delivery.
        extra = min(self.scale * rng.pareto(self.alpha), float(self.max_delay - 1))
        return sent_round + 1 + int(extra)


@dataclass
class JitteredSynchronousDelay(DelayModel):
    """Mostly synchronous delivery with occasional jitter.

    Each message independently arrives in the next round with probability
    ``1 - jitter_probability``; with probability ``jitter_probability`` it
    slips by a uniform 1..``max_extra`` additional rounds.  A small
    ``jitter_probability`` is the gentlest perturbation of the paper's
    model — a search harness can anneal it upward to find the point where
    a protocol's synchrony assumption actually starts to matter.
    """

    jitter_probability: float = 0.1
    max_extra: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter_probability <= 1.0:
            raise ValueError("jitter_probability must be within [0, 1]")
        if self.max_extra < 1:
            raise ValueError("max_extra must be at least 1")

    def delivery_round(
        self,
        sender: NodeId,
        dest: NodeId,
        sent_round: int,
        rng: np.random.Generator,
    ) -> int:
        # Every message draws once to pick its branch; only jittered
        # messages draw again for the extra delay.
        roll = float(rng.random())
        if roll < self.jitter_probability:
            return sent_round + 1 + int(rng.integers(1, self.max_extra + 1))
        return sent_round + 1


class _GroupedDelay(DelayModel):
    """Shared group bookkeeping for the partition-style models.

    Subclasses call :meth:`_same_group`; nodes absent from ``groups`` are
    resolved according to the ``ungrouped`` policy (see
    :data:`UNGROUPED_POLICIES`).  The historical behaviour — every
    ungrouped node silently mapping to one shared ``-1`` sentinel, so two
    churn joiners always looked synchronous to each other — is only
    available as the explicit ``"default_group"`` opt-in.
    """

    groups: tuple[frozenset[NodeId], ...]
    ungrouped: str

    def _init_groups(self) -> None:
        if self.ungrouped not in UNGROUPED_POLICIES:
            raise ValueError(
                f"unknown ungrouped policy {self.ungrouped!r}; "
                f"choose from {', '.join(UNGROUPED_POLICIES)}"
            )
        self.groups = tuple(frozenset(g) for g in self.groups)
        self._group_index = _index_groups(self.groups)

    def _same_group(self, sender: NodeId, dest: NodeId) -> bool:
        index = self._group_index
        sender_group = index.get(sender)
        dest_group = index.get(dest)
        if sender_group is None or dest_group is None:
            if self.ungrouped == "default_group":
                shared = len(self.groups)
                sender_group = shared if sender_group is None else sender_group
                dest_group = shared if dest_group is None else dest_group
                return sender_group == dest_group
            # "isolated": an ungrouped node is its own singleton group.
            return sender == dest
        return sender_group == dest_group


@dataclass
class BoundedUnknownDelay(_GroupedDelay):
    """Semi-synchronous model of Lemma 15: a fixed bound Δ exists but the
    nodes do not know it.

    Messages between nodes in the same group are delivered in the next
    round; messages that cross groups take exactly ``delta`` rounds.  With
    ``delta`` larger than the time either group needs to decide, this
    realises the execution ``E_s`` constructed in the proof of Lemma 15.
    """

    groups: tuple[frozenset[NodeId], ...]
    delta: int = 50
    ungrouped: str = "isolated"

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise ValueError("delta must be at least 1")
        self._init_groups()

    def delivery_round(
        self,
        sender: NodeId,
        dest: NodeId,
        sent_round: int,
        rng: np.random.Generator,
    ) -> int:
        if self._same_group(sender, dest):
            return sent_round + 1
        return sent_round + self.delta


@dataclass
class PartitionDelay(_GroupedDelay):
    """Asynchronous model of Lemma 14: cross-partition messages are delayed
    arbitrarily (here: until ``heal_round``, possibly never).

    Within a partition the system behaves synchronously, so each side of
    the partition is indistinguishable — to its members — from a system in
    which the other side does not exist.  That is exactly the
    indistinguishability argument of Lemma 14.
    """

    groups: tuple[frozenset[NodeId], ...]
    heal_round: int | None = None
    ungrouped: str = "isolated"

    def __post_init__(self) -> None:
        self._init_groups()

    def delivery_round(
        self,
        sender: NodeId,
        dest: NodeId,
        sent_round: int,
        rng: np.random.Generator,
    ) -> int:
        if self._same_group(sender, dest):
            return sent_round + 1
        if self.heal_round is None:
            # "never": schedule far enough in the future that no bounded
            # experiment observes the delivery.
            return sent_round + 1_000_000
        # A heal_round at or before the send still respects causality:
        # delivery can never precede the round after the send.
        return max(sent_round + 1, self.heal_round)


@dataclass
class FixedScheduleDelay(DelayModel):
    """Delays looked up from an explicit ``(sender, dest) -> delay`` table.

    Pairs absent from the table fall back to ``default`` rounds of delay.
    Useful for hand-constructed executions in tests.
    """

    table: Mapping[tuple[NodeId, NodeId], int] = field(default_factory=dict)
    default: int = 1

    def delivery_round(
        self,
        sender: NodeId,
        dest: NodeId,
        sent_round: int,
        rng: np.random.Generator,
    ) -> int:
        delay = self.table.get((sender, dest), self.default)
        if delay < 1:
            raise ValueError("delays must be at least one round")
        return sent_round + delay


def split_into_groups(ids: Iterable[NodeId], sizes: Iterable[int]) -> tuple[frozenset[NodeId], ...]:
    """Partition ``ids`` (in sorted order) into consecutive groups of ``sizes``.

    Convenience used by the impossibility experiments to build the ``A``/``B``
    partitions of Lemmas 14 and 15.  ``sizes`` must be positive and sum to
    at most ``len(ids)``; anything else would silently produce empty or
    truncated trailing groups, which defeats the constructions the groups
    exist for, so it raises :class:`ValueError` instead.  Ids left over
    after the last size form one trailing remainder group — that is how
    membership-changing runs keep churn joiners covered by the partition.
    """

    ordered = sorted(ids)
    sizes = [int(size) for size in sizes]
    if any(size < 1 for size in sizes):
        raise ValueError(f"group sizes must be positive, got {sizes}")
    if sum(sizes) > len(ordered):
        raise ValueError(
            f"group sizes {sizes} sum to {sum(sizes)} but only "
            f"{len(ordered)} ids were provided"
        )
    groups: list[frozenset[NodeId]] = []
    start = 0
    for size in sizes:
        groups.append(frozenset(ordered[start : start + size]))
        start += size
    if start != len(ordered):
        groups.append(frozenset(ordered[start:]))
    return tuple(groups)
