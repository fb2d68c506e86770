"""Helpers for assembling dynamic (churning) total-ordering systems.

Ties together a :class:`~repro.dynamic.churn.ChurnSchedule`, the
:class:`~repro.core.total_order.TotalOrderProcess` protocol and the
simulator's join/leave hooks, so experiments E8/E10 and the examples can
build a churning system in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from ..adversary.base import AdversaryStrategy, ByzantineProcess
from ..adversary.registry import make_strategy
from ..core.total_order import TotalOrderProcess
from ..sim.messages import NodeId
from ..sim.network import SynchronousNetwork
from ..sim.rng import derive
from .churn import ChurnSchedule

__all__ = ["DynamicSystem", "build_total_order_system", "every_round_events"]


def every_round_events(node_id: NodeId, *, period: int = 1) -> Callable[[int], Hashable | None]:
    """Event source: node ``node_id`` witnesses one event every ``period`` rounds."""

    def source(round_index: int) -> Hashable | None:
        if round_index % period == 0:
            return f"event:{node_id}:{round_index}"
        return None

    return source


@dataclass
class DynamicSystem:
    """A churning total-ordering system ready to run."""

    network: SynchronousNetwork
    schedule: ChurnSchedule
    genesis_correct: list[NodeId]

    def chains(self) -> dict[NodeId, tuple]:
        """The chain output by every genesis-correct node."""

        return {i: self.network.process(i).chain for i in self.genesis_correct}


def build_total_order_system(
    schedule: ChurnSchedule,
    *,
    event_period: int = 1,
    strategy: str | AdversaryStrategy | None = "silent",
    seed: int = 0,
    trace: bool = False,
) -> DynamicSystem:
    """Instantiate the total-ordering protocol over a churn schedule.

    Genesis nodes are configured with the genesis membership; joining nodes
    run the ``present``/``ack`` handshake.  Leaves are realised by giving
    the departing process its ``leave_round`` (the protocol announces
    ``absent`` itself) rather than by yanking it from the network, so the
    wind-down path of Algorithm 6 is exercised.
    """

    genesis_correct = list(schedule.initial_correct)
    genesis_byzantine = list(schedule.initial_byzantine)
    genesis = set(genesis_correct) | set(genesis_byzantine)

    leave_rounds: dict[NodeId, int] = {}
    for event in schedule.events:
        if event.kind == "leave":
            leave_rounds.setdefault(event.node_id, event.round_index)

    def make_correct(node: NodeId, members: set[NodeId] | None) -> TotalOrderProcess:
        return TotalOrderProcess(
            node,
            initial_members=members,
            events=every_round_events(node, period=event_period),
            leave_round=leave_rounds.get(node),
        )

    def make_byzantine(node: NodeId) -> ByzantineProcess:
        strat = (
            make_strategy(strategy)
            if isinstance(strategy, str)
            else (strategy or make_strategy("silent"))
        )
        return ByzantineProcess(node, strat, seed=derive(seed, "byz", node))

    processes = [
        make_correct(node, genesis) for node in genesis_correct
    ] + [make_byzantine(node) for node in genesis_byzantine]

    joins: dict[int, list] = {}
    for event in schedule.events:
        if event.kind != "join":
            continue
        if schedule.is_byzantine(event.node_id):
            proc = make_byzantine(event.node_id)
        else:
            proc = make_correct(event.node_id, None)
        joins.setdefault(event.round_index, []).append(proc)

    network = SynchronousNetwork(
        processes, seed=derive(seed, "net"), trace=trace, joins=joins
    )
    return DynamicSystem(
        network=network, schedule=schedule, genesis_correct=genesis_correct
    )
