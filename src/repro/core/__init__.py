"""The paper's primary contribution: agreement algorithms for the id-only model.

Every algorithm here works without knowing the number of participants ``n``
or the fault bound ``f``; the only global assumptions are synchronous
rounds, unique (not necessarily consecutive) identifiers, and ``n > 3f``.
"""

from .approximate_agreement import (
    ApproximateAgreementProcess,
    IteratedApproximateAgreementProcess,
    ValueMessage,
    trim_and_midpoint,
)
from .consensus import (
    INIT_ROUNDS,
    LINGER_PHASES,
    PHASE_LENGTH,
    ConsensusInput,
    ConsensusProcess,
    Prefer,
    StrongPrefer,
)
from .parallel_consensus import (
    BOTTOM,
    ParallelConsensusEngine,
    ParallelConsensusProcess,
    PCInput,
    PCNoPreference,
    PCNoStrongPreference,
    PCOpinion,
    PCPrefer,
    PCStrongPrefer,
)
from .quorums import (
    best_supported_value,
    is_resilient,
    max_faults_tolerated,
    meets_one_third,
    meets_two_thirds,
    one_third,
    pick_supported,
    two_thirds,
    values_meeting,
)
from .reliable_broadcast import (
    AcceptanceRecord,
    Echo,
    Initial,
    Present,
    ReliableBroadcastProcess,
)
from .rotor_coordinator import (
    Opinion,
    RotorCoordinatorCore,
    RotorCoordinatorProcess,
    RotorEcho,
    RotorInit,
    RotorRoundOutcome,
    SelectionRecord,
)
from .total_order import (
    AbsentMsg,
    AckMsg,
    ChainEntry,
    EventMsg,
    PCBatch,
    PresentMsg,
    TotalOrderProcess,
    finality_horizon,
)

__all__ = [
    "AbsentMsg",
    "AcceptanceRecord",
    "AckMsg",
    "ApproximateAgreementProcess",
    "BOTTOM",
    "ChainEntry",
    "ConsensusInput",
    "ConsensusProcess",
    "Echo",
    "EventMsg",
    "INIT_ROUNDS",
    "Initial",
    "IteratedApproximateAgreementProcess",
    "LINGER_PHASES",
    "Opinion",
    "PCInput",
    "PCNoPreference",
    "PCNoStrongPreference",
    "PCOpinion",
    "PCPrefer",
    "PCStrongPrefer",
    "PCBatch",
    "PHASE_LENGTH",
    "ParallelConsensusEngine",
    "ParallelConsensusProcess",
    "Prefer",
    "Present",
    "PresentMsg",
    "ReliableBroadcastProcess",
    "RotorCoordinatorCore",
    "RotorCoordinatorProcess",
    "RotorEcho",
    "RotorInit",
    "RotorRoundOutcome",
    "SelectionRecord",
    "StrongPrefer",
    "TotalOrderProcess",
    "ValueMessage",
    "best_supported_value",
    "finality_horizon",
    "is_resilient",
    "max_faults_tolerated",
    "meets_one_third",
    "meets_two_thirds",
    "one_third",
    "pick_supported",
    "trim_and_midpoint",
    "two_thirds",
    "values_meeting",
]
