"""Exception hierarchy for the synchronous-round simulator.

Keeping a dedicated hierarchy lets callers distinguish configuration
mistakes (e.g. duplicate node identifiers) from runtime protocol errors
(e.g. a process emitting a message after it halted) and from violations of
simulator invariants that indicate a bug in the simulator itself.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for every error raised by :mod:`repro.sim`."""


class ConfigurationError(SimulationError):
    """The simulation was constructed with inconsistent parameters."""


class DuplicateNodeError(ConfigurationError):
    """Two processes were registered with the same node identifier."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"duplicate node identifier: {node_id}")
        self.node_id = node_id


class UnknownNodeError(ConfigurationError):
    """A message was addressed to a node identifier that never existed."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"unknown node identifier: {node_id}")
        self.node_id = node_id


class HaltedProcessError(SimulationError):
    """A halted process attempted to emit messages."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"process {node_id} emitted messages after halting")
        self.node_id = node_id


class InvalidOutgoingError(SimulationError):
    """A process returned something that is not a valid outgoing action."""

    def __init__(self, node_id: int, item: object) -> None:
        super().__init__(
            f"process {node_id} returned an invalid outgoing action: {item!r}"
        )
        self.node_id = node_id
        self.item = item


class RoundLimitExceeded(SimulationError):
    """The simulation reached ``max_rounds`` without satisfying its stop
    condition.

    The run result is attached so callers can still inspect partial
    progress (useful when probing executions that are *expected* not to
    terminate, e.g. the impossibility constructions of Section IX).
    """

    def __init__(self, max_rounds: int, result: object = None) -> None:
        super().__init__(f"simulation did not stop within {max_rounds} rounds")
        self.max_rounds = max_rounds
        self.result = result


class MembershipError(SimulationError):
    """A churn schedule referenced a node inconsistently (e.g. a join for a
    node that is already active, or a leave for a node that never joined)."""
