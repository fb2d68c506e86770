"""Workload primitives: identifiers, inputs, and network assembly.

The experiments and the integration tests all construct simulated systems
the same way: pick a set of sparse (non-consecutive) identifiers, decide
which of them are Byzantine, instantiate the protocol processes for the
correct nodes and an adversary strategy for each Byzantine node, and wire
everything into a :class:`~repro.sim.network.SynchronousNetwork`.  This
module holds those primitives (:func:`sparse_ids`, :func:`build_network`,
:class:`SystemSpec`, …).  Per-protocol systems are declared as a
:class:`repro.api.ScenarioSpec` and assembled by :func:`repro.api.build_system`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..adversary.base import AdversaryStrategy, ByzantineProcess
from ..adversary.registry import make_strategy
from ..sim.delays import DelayModel
from ..sim.messages import NodeId
from ..sim.network import SynchronousNetwork
from ..sim.node import Process
from ..sim.rng import derive, make_rng

__all__ = [
    "sparse_ids",
    "split_correct_byzantine",
    "binary_inputs",
    "real_inputs",
    "SystemSpec",
    "build_network",
]


def sparse_ids(n: int, *, seed: int = 0, low: int = 10, high: int = 1_000_000) -> list[NodeId]:
    """Generate ``n`` unique, non-consecutive identifiers.

    The id-only model stresses that identifiers are unique but *not*
    consecutive, so every workload draws them at random from a large space.
    """

    if n < 1:
        raise ValueError("n must be positive")
    if high - low < n:
        raise ValueError("identifier space too small for n nodes")
    rng = make_rng(seed)
    ids: set[int] = set()
    while len(ids) < n:
        ids.update(int(x) for x in rng.integers(low, high, size=n - len(ids)))
    return sorted(ids)


def split_correct_byzantine(
    ids: Sequence[NodeId], f: int, *, seed: int = 0
) -> tuple[list[NodeId], list[NodeId]]:
    """Choose which ``f`` of the identifiers are Byzantine (uniformly)."""

    if f < 0 or f > len(ids):
        raise ValueError("f must be between 0 and n")
    rng = make_rng(seed)
    byz = set(
        int(ids[i]) for i in rng.choice(len(ids), size=f, replace=False)
    ) if f else set()
    correct = [i for i in ids if i not in byz]
    return correct, sorted(byz)


def binary_inputs(
    correct_ids: Sequence[NodeId], *, ones_fraction: float = 0.5, seed: int = 0
) -> dict[NodeId, int]:
    """Assign binary inputs with roughly ``ones_fraction`` ones."""

    rng = make_rng(seed)
    shuffled = list(correct_ids)
    rng.shuffle(shuffled)
    ones = int(round(ones_fraction * len(shuffled)))
    return {node: (1 if index < ones else 0) for index, node in enumerate(shuffled)}


def real_inputs(
    correct_ids: Sequence[NodeId],
    *,
    low: float = 0.0,
    high: float = 100.0,
    seed: int = 0,
) -> dict[NodeId, float]:
    """Assign uniformly random real inputs in ``[low, high]``."""

    rng = make_rng(seed)
    return {node: float(rng.uniform(low, high)) for node in sorted(correct_ids)}


@dataclass
class SystemSpec:
    """A fully specified simulated system, ready to run."""

    network: SynchronousNetwork
    correct_ids: list[NodeId]
    byzantine_ids: list[NodeId]
    params: dict[str, object] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.correct_ids) + len(self.byzantine_ids)

    @property
    def f(self) -> int:
        return len(self.byzantine_ids)

    def correct_processes(self) -> dict[NodeId, Process]:
        return {i: self.network.process(i) for i in self.correct_ids}


def _resolve_strategy(
    strategy: str | AdversaryStrategy | Callable[[], AdversaryStrategy] | None,
) -> Callable[[], AdversaryStrategy]:
    """Normalise the many ways callers can specify an adversary."""

    if strategy is None:
        return lambda: make_strategy("silent")
    if isinstance(strategy, str):
        return lambda: make_strategy(strategy)
    if isinstance(strategy, AdversaryStrategy):
        return lambda: strategy
    return strategy


def build_network(
    *,
    correct_factory: Callable[[NodeId], Process],
    correct_ids: Sequence[NodeId],
    byzantine_ids: Sequence[NodeId] = (),
    strategy: str | AdversaryStrategy | Callable[[], AdversaryStrategy] | None = None,
    seed: int = 0,
    delay_model: DelayModel | None = None,
    trace: bool = False,
) -> SystemSpec:
    """Assemble a network from per-node factories and an adversary spec."""

    strategy_factory = _resolve_strategy(strategy)
    processes: list[Process] = [correct_factory(node) for node in correct_ids]
    for index, node in enumerate(byzantine_ids):
        processes.append(
            ByzantineProcess(
                node,
                strategy_factory(),
                seed=derive(seed, "byz", node, index),
            )
        )
    network = SynchronousNetwork(
        processes, seed=derive(seed, "network"), delay_model=delay_model, trace=trace
    )
    return SystemSpec(
        network=network,
        correct_ids=list(correct_ids),
        byzantine_ids=list(byzantine_ids),
    )
