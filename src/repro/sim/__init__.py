"""Synchronous round-based message-passing simulator (the paper's substrate).

The simulator realises the id-only model of Section IV exactly: lock-step
rounds, truthful sender identifiers, broadcast/unicast primitives, and no
global knowledge of ``n`` or ``f`` at the processes.  Delay models other
than the synchronous one exist solely to reproduce the Section IX
impossibility constructions.
"""

from .delays import (
    BoundedUnknownDelay,
    DelayModel,
    FixedScheduleDelay,
    HeavyTailDelay,
    JitteredSynchronousDelay,
    PartitionDelay,
    SynchronousDelay,
    UniformRandomDelay,
    split_into_groups,
)
from .errors import (
    ConfigurationError,
    DuplicateNodeError,
    HaltedProcessError,
    InvalidOutgoingError,
    MembershipError,
    RoundLimitExceeded,
    SimulationError,
    UnknownNodeError,
)
from .events import EventKind, Trace, TraceEvent
from .messages import Broadcast, Inbox, NodeId, Outgoing, Payload, Unicast
from .metrics import DecisionRecord, RoundMetrics, RunMetrics
from .network import (
    RunResult,
    SynchronousNetwork,
    SystemView,
    all_correct_decided,
    all_correct_halted,
)
from .node import KnownSenders, NullProcess, Process, RoundView
from .rng import derive, make_rng, spawn

__all__ = [
    "Broadcast",
    "BoundedUnknownDelay",
    "ConfigurationError",
    "DecisionRecord",
    "DelayModel",
    "DuplicateNodeError",
    "EventKind",
    "FixedScheduleDelay",
    "HaltedProcessError",
    "HeavyTailDelay",
    "Inbox",
    "InvalidOutgoingError",
    "JitteredSynchronousDelay",
    "KnownSenders",
    "MembershipError",
    "NodeId",
    "NullProcess",
    "Outgoing",
    "PartitionDelay",
    "Payload",
    "Process",
    "RoundLimitExceeded",
    "RoundMetrics",
    "RoundView",
    "RunMetrics",
    "RunResult",
    "SimulationError",
    "SynchronousDelay",
    "SynchronousNetwork",
    "SystemView",
    "Trace",
    "TraceEvent",
    "Unicast",
    "UniformRandomDelay",
    "UnknownNodeError",
    "all_correct_decided",
    "all_correct_halted",
    "derive",
    "make_rng",
    "spawn",
    "split_into_groups",
]
