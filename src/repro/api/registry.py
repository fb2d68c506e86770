"""The protocol registry: one uniform ``build(spec) -> SystemSpec`` factory.

Every protocol of the reproduction — the seven id-only algorithms of the
paper plus the three classic known-(n, f) baselines — registers a builder
here.  A builder takes a :class:`~repro.api.spec.ScenarioSpec` and returns
a ready-to-run :class:`~repro.workloads.generators.SystemSpec`, assembling
identifiers, inputs, adversaries, delay models and (where supported)
churn from fixed seed derivations, so a seed keeps producing the same
execution.

The registry also records each protocol's *run policy*: the default round
budget (possibly a function of ``n``/``f``) and the default stop condition,
which :func:`repro.api.sweep.run_scenario` applies when the spec leaves
them unspecified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..baselines import (
    DolevApproxProcess,
    KnownFConsensusProcess,
    SrikanthTouegBroadcastProcess,
)
from ..core.approximate_agreement import (
    ApproximateAgreementProcess,
    IteratedApproximateAgreementProcess,
)
from ..core.consensus import ConsensusProcess
from ..core.parallel_consensus import ParallelConsensusProcess
from ..core.reliable_broadcast import ReliableBroadcastProcess
from ..core.rotor_coordinator import RotorCoordinatorProcess
from ..dynamic.churn import generate_churn_schedule, generate_flash_crowd_schedule
from ..dynamic.membership import build_total_order_system
from ..sim.delays import (
    BoundedUnknownDelay,
    DelayModel,
    HeavyTailDelay,
    JitteredSynchronousDelay,
    PartitionDelay,
    UniformRandomDelay,
    split_into_groups,
)
from ..sim.messages import NodeId
from ..sim.rng import derive, make_rng
from ..workloads.generators import (
    SystemSpec,
    binary_inputs,
    build_network,
    real_inputs,
    sparse_ids,
    split_correct_byzantine,
)
from .spec import ScenarioSpec, _coerce_id

__all__ = [
    "ProtocolInfo",
    "ProtocolRegistry",
    "REGISTRY",
    "register_protocol",
    "build_system",
    "available_protocols",
]

#: The signature every registered builder implements; each builder reads
#: the adversary from ``spec.adversary`` itself.
Builder = Callable[[ScenarioSpec], SystemSpec]


@dataclass(frozen=True)
class ProtocolInfo:
    """Registry metadata for one protocol."""

    name: str
    builder: Builder
    description: str
    baseline: bool
    default_max_rounds: Callable[[ScenarioSpec], int]
    default_stop: str  # "decided" | "halted" | "never"
    supports_inputs: bool  # honours non-default ScenarioSpec.inputs
    supports_churn: bool  # honours ScenarioSpec.churn
    supports_delay: bool  # honours non-synchronous ScenarioSpec.delay
    known_params: tuple[str, ...]  # the ScenarioSpec.params keys the builder reads


class ProtocolRegistry:
    """Name-based registry of scenario builders."""

    def __init__(self) -> None:
        self._protocols: dict[str, ProtocolInfo] = {}

    def register(
        self,
        name: str,
        *,
        description: str = "",
        baseline: bool = False,
        max_rounds: Callable[[ScenarioSpec], int] | int = 60,
        stop: str = "decided",
        inputs: bool = False,
        churn: bool = False,
        delay: bool = True,
        params: tuple[str, ...] = (),
    ) -> Callable[[Builder], Builder]:
        """Decorator registering ``builder`` under ``name``.

        ``inputs``/``churn``/``delay`` declare which spec facilities the
        builder honours and ``params`` the protocol-parameter keys it
        reads; :meth:`build` rejects specs that use anything else, so a
        validated spec never silently misdescribes the execution it
        produces.
        """

        if stop not in ("decided", "halted", "never"):
            raise ValueError(f"invalid default stop condition {stop!r}")
        budget = max_rounds if callable(max_rounds) else (lambda spec, _b=max_rounds: _b)

        def decorator(builder: Builder) -> Builder:
            if name in self._protocols:
                raise ValueError(f"protocol {name!r} registered twice")
            self._protocols[name] = ProtocolInfo(
                name=name,
                builder=builder,
                description=description,
                baseline=baseline,
                default_max_rounds=budget,
                default_stop=stop,
                supports_inputs=inputs,
                supports_churn=churn,
                supports_delay=delay,
                known_params=tuple(params),
            )
            return builder

        return decorator

    # -- lookup -------------------------------------------------------------

    def info(self, name: str) -> ProtocolInfo:
        try:
            return self._protocols[name]
        except KeyError as exc:
            raise KeyError(
                f"unknown protocol {name!r}; known: {', '.join(sorted(self._protocols))}"
            ) from exc

    def names(self, *, include_baselines: bool = True) -> list[str]:
        return sorted(
            name
            for name, info in self._protocols.items()
            if include_baselines or not info.baseline
        )

    def __contains__(self, name: str) -> bool:
        return name in self._protocols

    def __iter__(self):
        return iter(sorted(self._protocols))

    # -- building -----------------------------------------------------------

    def build(self, spec: ScenarioSpec) -> SystemSpec:
        """Assemble the simulated system described by ``spec``."""

        info = self.info(spec.protocol)
        self._check_supported(spec, info)
        return info.builder(spec)

    @staticmethod
    def _check_supported(spec: ScenarioSpec, info: ProtocolInfo) -> None:
        """Reject spec facilities the protocol's builder would ignore."""

        if spec.inputs != "default" and not info.supports_inputs:
            raise ValueError(
                f"protocol {info.name!r} takes no per-node inputs "
                f"(got inputs={spec.inputs!r})"
            )
        if spec.churn is not None and not info.supports_churn:
            raise ValueError(f"protocol {info.name!r} does not support churn")
        if spec.delay != "synchronous" and not info.supports_delay:
            raise ValueError(
                f"protocol {info.name!r} does not support the "
                f"{spec.delay!r} delay model"
            )
        unknown = sorted(set(spec.params) - set(info.known_params))
        if unknown:
            known = ", ".join(info.known_params) or "none"
            raise ValueError(
                f"unknown params for protocol {info.name!r}: "
                f"{', '.join(unknown)} (known: {known})"
            )


#: The process-global registry all protocols register into.
REGISTRY = ProtocolRegistry()

register_protocol = REGISTRY.register


def build_system(spec: ScenarioSpec) -> SystemSpec:
    """Module-level alias for :meth:`ProtocolRegistry.build` on :data:`REGISTRY`."""

    return REGISTRY.build(spec)


def available_protocols(*, include_baselines: bool = True) -> list[str]:
    """The names of every registered protocol, sorted."""

    return REGISTRY.names(include_baselines=include_baselines)


# ---------------------------------------------------------------------------
# Shared assembly helpers
# ---------------------------------------------------------------------------


def _population(spec: ScenarioSpec, *, extra: int = 0):
    """Draw the identifier population and the correct/Byzantine split.

    The derivations (``derive(seed, "ids")`` / ``derive(seed, "split")``)
    are fixed, so old seeds keep reproducing the same systems.  ``extra``
    reserves additional ids beyond ``n`` (used for churn joiners).
    """

    ids = sparse_ids(spec.n + extra, seed=derive(spec.seed, "ids"))
    correct, byz = split_correct_byzantine(
        ids[: spec.n], spec.f, seed=derive(spec.seed, "split")
    )
    return ids, correct, byz


def _resolve_inputs(
    spec: ScenarioSpec, correct: Sequence[NodeId], *, default: str
) -> dict[NodeId, object]:
    """Materialise the input distribution for the correct nodes."""

    kind = default if spec.inputs == "default" else spec.inputs
    options = dict(spec.input_params)
    ordered = sorted(correct)
    if kind == "none":
        return {}
    if kind == "binary":
        return binary_inputs(
            ordered,
            ones_fraction=float(options.get("ones_fraction", 0.5)),
            seed=derive(spec.seed, "inputs"),
        )
    if kind == "real":
        return real_inputs(
            ordered,
            low=float(options.get("low", 0.0)),
            high=float(options.get("high", 100.0)),
            seed=derive(spec.seed, "inputs"),
        )
    if kind == "alternating":
        return {node: (1 if index % 2 else 0) for index, node in enumerate(ordered)}
    if kind == "listed":
        values = list(options.get("values", ()))
        if len(values) != len(ordered):
            raise ValueError(
                f"'listed' inputs need exactly {len(ordered)} values, got {len(values)}"
            )
        return dict(zip(ordered, values))
    if kind == "explicit":
        values = options.get("values")
        if not isinstance(values, Mapping):
            raise ValueError("'explicit' inputs need input_params['values'] mapping")
        resolved = {_coerce_id(k): v for k, v in values.items()}
        missing = [node for node in ordered if node not in resolved]
        if missing:
            raise ValueError(f"explicit inputs missing values for nodes {missing}")
        return {node: resolved[node] for node in ordered}
    if kind == "split":
        sizes = [int(s) for s in options.get("sizes", ())]
        values = list(options.get("values", ()))
        if sum(sizes) != len(ordered) or len(values) != len(sizes):
            raise ValueError(
                "'split' inputs need sizes summing to the correct-node count "
                "and one value per group"
            )
        inputs: dict[NodeId, object] = {}
        start = 0
        for size, value in zip(sizes, values):
            for node in ordered[start : start + size]:
                inputs[node] = value
            start += size
        return inputs
    raise ValueError(f"input kind {kind!r} is not supported by this protocol")


def _resolve_delay(spec: ScenarioSpec, ids: Sequence[NodeId]) -> DelayModel | None:
    """Materialise the delay model (``None`` means synchronous default)."""

    options = dict(spec.delay_params)
    if spec.delay == "synchronous":
        return None
    if spec.delay == "uniform-random":
        return UniformRandomDelay(max_delay=int(options.get("max_delay", 3)))
    if spec.delay == "heavy-tail":
        return HeavyTailDelay(
            alpha=float(options.get("alpha", 1.5)),
            scale=float(options.get("scale", 0.5)),
            max_delay=int(options.get("max_delay", 20)),
        )
    if spec.delay == "jittered":
        return JitteredSynchronousDelay(
            jitter_probability=float(options.get("jitter_probability", 0.1)),
            max_extra=int(options.get("max_extra", 2)),
        )
    sizes = [int(s) for s in options.get("sizes", ())]
    if not sizes:
        raise ValueError(f"delay model {spec.delay!r} needs delay_params['sizes']")
    # ``ids`` includes any churn-pool extras, so the trailing remainder
    # group of split_into_groups covers every potential joiner; the
    # ungrouped policy below only matters for ids the spec never minted.
    groups = split_into_groups(ids, sizes)
    ungrouped = str(options.get("ungrouped", "isolated"))
    if spec.delay == "partition":
        heal = options.get("heal_round")
        return PartitionDelay(
            groups=groups,
            heal_round=None if heal is None else int(heal),
            ungrouped=ungrouped,
        )
    return BoundedUnknownDelay(
        groups=groups, delta=int(options.get("delta", 40)), ungrouped=ungrouped
    )


def _assemble(
    spec: ScenarioSpec,
    *,
    correct_factory,
    correct: Sequence[NodeId],
    byzantine: Sequence[NodeId],
    ids: Sequence[NodeId],
) -> SystemSpec:
    return build_network(
        correct_factory=correct_factory,
        correct_ids=correct,
        byzantine_ids=byzantine,
        strategy=spec.adversary,
        seed=spec.seed,
        delay_model=_resolve_delay(spec, ids),
        trace=spec.trace,
    )


# ---------------------------------------------------------------------------
# Core id-only protocols (Algorithms 1–6 of the paper)
# ---------------------------------------------------------------------------


@register_protocol(
    "reliable-broadcast",
    description="Algorithm 1: id-only reliable broadcast from one designated sender",
    max_rounds=12,
    stop="decided",
    params=("message", "byzantine_sender"),
)
def _build_reliable_broadcast(spec: ScenarioSpec) -> SystemSpec:
    ids, correct, byz = _population(spec)
    message = spec.params.get("message", "hello")
    byzantine_sender = bool(spec.params.get("byzantine_sender", False))
    source = byz[0] if byzantine_sender and byz else correct[0]
    system = _assemble(
        spec,
        correct_factory=lambda node: ReliableBroadcastProcess(
            node, source=source, message=message
        ),
        correct=correct,
        byzantine=byz,
        ids=ids,
    )
    system.params.update({"source": source, "message": message})
    return system


@register_protocol(
    "rotor-coordinator",
    description="Algorithm 2: rotating-coordinator selection with O(n) termination",
    max_rounds=lambda spec: 6 * spec.n + 20,
    stop="halted",
)
def _build_rotor_coordinator(spec: ScenarioSpec) -> SystemSpec:
    ids, correct, byz = _population(spec)
    return _assemble(
        spec,
        correct_factory=lambda node: RotorCoordinatorProcess(node, opinion=node),
        correct=correct,
        byzantine=byz,
        ids=ids,
    )


@register_protocol(
    "consensus",
    description="Algorithm 3: binary consensus without knowing n or f",
    max_rounds=lambda spec: 40 + 10 * spec.f,
    stop="decided",
    inputs=True,
    params=("substitution",),
)
def _build_consensus(spec: ScenarioSpec) -> SystemSpec:
    ids, correct, byz = _population(spec)
    inputs = _resolve_inputs(spec, correct, default="binary")
    substitution = str(spec.params.get("substitution", "narrow"))
    system = _assemble(
        spec,
        correct_factory=lambda node: ConsensusProcess(
            node, input_value=inputs[node], substitution=substitution
        ),
        correct=correct,
        byzantine=byz,
        ids=ids,
    )
    system.params.update({"inputs": dict(inputs)})
    return system


def _build_approx(spec: ScenarioSpec, *, default_iterations: int) -> SystemSpec:
    iterations = int(spec.params.get("iterations", default_iterations))
    churn = dict(spec.churn or {})
    pool = int(churn.get("pool", 4)) if churn else 0
    ids, correct, byz = _population(spec, extra=pool)
    inputs = _resolve_inputs(spec, correct, default="real")

    def factory(node: NodeId, value: object | None = None):
        value = inputs[node] if value is None else value
        if iterations <= 1:
            return ApproximateAgreementProcess(node, input_value=value)
        return IteratedApproximateAgreementProcess(
            node, input_value=value, iterations=iterations
        )

    system = _assemble(
        spec,
        correct_factory=factory,
        correct=correct,
        byzantine=byz,
        ids=ids,
    )

    # Optional churn (Section XI): extra correct nodes join mid-run with
    # fresh inputs from the same range, and one original node leaves.
    joiners: list[NodeId] = []
    departed: list[NodeId] = []
    join_fraction = float(churn.get("join_fraction", 0.0)) if churn else 0.0
    if join_fraction > 0:
        rng = make_rng(derive(spec.seed, "churn-values"))
        join_start = int(churn.get("join_start", 3))
        low = float(spec.input_params.get("low", 0.0))
        high = float(spec.input_params.get("high", 100.0))
        candidates = ids[spec.n :]
        joiners = list(candidates[: int(len(candidates) * join_fraction * 2)])
        for index, node in enumerate(joiners):
            system.network.add_process(
                factory(node, float(rng.uniform(low, high))),
                at_round=join_start + index,
            )
        leave_round = int(churn.get("leave_round", 5))
        system.network.remove_process(correct[-1], at_round=leave_round)
        departed = [correct[-1]]

    system.params.update(
        {"inputs": dict(inputs), "iterations": iterations, "joiners": joiners, "departed": departed}
    )
    return system


@register_protocol(
    "approximate-agreement",
    description="Algorithm 4: single-shot approximate agreement on real values",
    max_rounds=lambda spec: int(spec.params.get("iterations", 1)) + 3,
    stop="decided",
    inputs=True,
    churn=True,
    params=("iterations",),
)
def _build_approximate_agreement(spec: ScenarioSpec) -> SystemSpec:
    return _build_approx(spec, default_iterations=1)


@register_protocol(
    "iterated-approximate-agreement",
    description="Iterated Algorithm 4: per-iteration range halving, optional churn",
    max_rounds=lambda spec: int(spec.params.get("iterations", 6)) + 4,
    stop="decided",
    inputs=True,
    churn=True,
    params=("iterations",),
)
def _build_iterated_approximate_agreement(spec: ScenarioSpec) -> SystemSpec:
    return _build_approx(spec, default_iterations=6)


@register_protocol(
    "parallel-consensus",
    description="Algorithm 5: k consensus instances agreed in parallel",
    max_rounds=lambda spec: 40 + 5 * spec.f,
    stop="decided",
    params=("pairs", "k_instances"),
)
def _build_parallel_consensus(spec: ScenarioSpec) -> SystemSpec:
    ids, correct, byz = _population(spec)
    pairs = spec.params.get("pairs")
    if pairs is None:
        k = int(spec.params.get("k_instances", 4))
        rng = make_rng(spec.seed)
        pairs = {f"instance-{i}": int(rng.integers(0, 100)) for i in range(k)}
    else:
        pairs = dict(pairs)
    system = _assemble(
        spec,
        correct_factory=lambda node: ParallelConsensusProcess(node, input_pairs=pairs),
        correct=correct,
        byzantine=byz,
        ids=ids,
    )
    system.params.update({"pairs": dict(pairs)})
    return system


@register_protocol(
    "total-order",
    description="Algorithm 6: total ordering of events in a dynamic network",
    max_rounds=lambda spec: int((spec.churn or {}).get("rounds", 45)),
    stop="never",
    churn=True,
    delay=False,  # builds its own network via the churn schedule
    params=("event_period",),
)
def _build_total_order(spec: ScenarioSpec) -> SystemSpec:
    churn = dict(spec.churn or {})
    rounds = int(churn.get("rounds", spec.max_rounds or 45))
    pattern = str(churn.get("pattern", "random"))
    if pattern == "random":
        schedule = generate_churn_schedule(
            initial_correct=spec.n - spec.f,
            initial_byzantine=spec.f,
            rounds=rounds,
            join_rate=float(churn.get("join_rate", 0.0)),
            leave_rate=float(churn.get("leave_rate", 0.0)),
            byzantine_join_fraction=float(churn.get("byzantine_join_fraction", 0.0)),
            seed=spec.seed,
            min_round=int(churn.get("min_round", 3)),
            leave_candidates=str(churn.get("leave_candidates", "live")),
        )
    elif pattern == "flash-crowd":
        exodus_round = churn.get("exodus_round")
        schedule = generate_flash_crowd_schedule(
            initial_correct=spec.n - spec.f,
            initial_byzantine=spec.f,
            rounds=rounds,
            burst_round=int(churn.get("burst_round", 5)),
            burst_size=int(churn.get("burst_size", 5)),
            burst_byzantine_fraction=float(churn.get("burst_byzantine_fraction", 0.0)),
            exodus_round=None if exodus_round is None else int(exodus_round),
            exodus_fraction=float(churn.get("exodus_fraction", 0.5)),
            seed=spec.seed,
        )
    else:
        raise ValueError(
            f"unknown churn pattern {pattern!r}; choose 'random' or 'flash-crowd'"
        )
    dynamic = build_total_order_system(
        schedule,
        event_period=int(spec.params.get("event_period", 1)),
        strategy=spec.adversary,
        seed=derive(spec.seed, "sys"),
        trace=spec.trace,
    )
    system = SystemSpec(
        network=dynamic.network,
        correct_ids=list(dynamic.genesis_correct),
        byzantine_ids=list(schedule.initial_byzantine),
    )
    system.params.update({"schedule": schedule, "rounds": rounds})
    return system


# ---------------------------------------------------------------------------
# Classic known-(n, f) baselines (for the comparison experiments)
# ---------------------------------------------------------------------------


@register_protocol(
    "srikanth-toueg-broadcast",
    description="Baseline: Srikanth–Toueg reliable broadcast with configured f",
    baseline=True,
    max_rounds=12,
    stop="decided",
    params=("message", "assumed_f", "byzantine_sender"),
)
def _build_srikanth_toueg(spec: ScenarioSpec) -> SystemSpec:
    ids, correct, byz = _population(spec)
    message = spec.params.get("message", "hello")
    assumed_f = int(spec.params.get("assumed_f", spec.f))
    byzantine_sender = bool(spec.params.get("byzantine_sender", False))
    source = byz[0] if byzantine_sender and byz else correct[0]
    system = _assemble(
        spec,
        correct_factory=lambda node: SrikanthTouegBroadcastProcess(
            node, source=source, assumed_f=assumed_f, message=message
        ),
        correct=correct,
        byzantine=byz,
        ids=ids,
    )
    system.params.update({"source": source, "message": message, "assumed_f": assumed_f})
    return system


@register_protocol(
    "known-f-consensus",
    description="Baseline: phase-king consensus with known membership and f",
    baseline=True,
    max_rounds=60,
    stop="decided",
    inputs=True,
    params=("assumed_f",),
)
def _build_known_f_consensus(spec: ScenarioSpec) -> SystemSpec:
    ids, correct, byz = _population(spec)
    membership = list(ids[: spec.n])
    assumed_f = int(spec.params.get("assumed_f", spec.f))
    inputs = _resolve_inputs(spec, correct, default="binary")
    system = _assemble(
        spec,
        correct_factory=lambda node: KnownFConsensusProcess(
            node, input_value=inputs[node], membership=membership, assumed_f=assumed_f
        ),
        correct=correct,
        byzantine=byz,
        ids=ids,
    )
    system.params.update({"inputs": dict(inputs), "assumed_f": assumed_f})
    return system


@register_protocol(
    "dolev-approx",
    description="Baseline: single-round trim-f approximate agreement (Dolev et al.)",
    baseline=True,
    max_rounds=6,
    stop="decided",
    inputs=True,
    params=("assumed_f",),
)
def _build_dolev_approx(spec: ScenarioSpec) -> SystemSpec:
    ids, correct, byz = _population(spec)
    assumed_f = int(spec.params.get("assumed_f", spec.f))
    inputs = _resolve_inputs(spec, correct, default="real")
    system = _assemble(
        spec,
        correct_factory=lambda node: DolevApproxProcess(
            node, input_value=inputs[node], assumed_f=assumed_f
        ),
        correct=correct,
        byzantine=byz,
        ids=ids,
    )
    system.params.update({"inputs": dict(inputs), "assumed_f": assumed_f})
    return system
