"""The declarative scenario specification.

A :class:`ScenarioSpec` is a frozen, JSON-serialisable description of one
simulated execution: which protocol to run, the system size and fault
count, how the correct nodes' inputs are drawn, which adversary strategy
the Byzantine nodes follow, the message-delay model, optional
membership/churn options, the seed and the round budget.  Everything the
registry needs to build — and the sweep engine needs to ship to a worker
process — lives in this one value.

Specs round-trip losslessly through :meth:`ScenarioSpec.to_dict` /
:meth:`ScenarioSpec.from_dict` (and therefore through JSON), which is what
makes cross-process sweeps and on-disk experiment manifests possible.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from ..adversary.registry import available_strategies

__all__ = [
    "INPUT_KINDS",
    "DELAY_KINDS",
    "STOP_KINDS",
    "ScenarioSpec",
]

#: Recognised input-distribution kinds.  ``default`` defers to the
#: protocol's own default (binary for consensus, real for approximate
#: agreement, none for broadcast-style protocols).
INPUT_KINDS = (
    "default",   # per-protocol default distribution
    "none",      # the protocol takes no per-node input
    "binary",    # {0, 1} inputs with a configurable ones_fraction
    "real",      # uniform real inputs in [low, high]
    "alternating",  # 0/1 by rank over the sorted correct ids
    "listed",    # explicit values assigned by rank over the sorted ids
    "explicit",  # explicit {node_id: value} mapping
    "split",     # consecutive groups of the sorted ids get fixed values
)

#: Recognised message-delay models (see :mod:`repro.sim.delays`).
DELAY_KINDS = (
    "synchronous",
    "uniform-random",
    "heavy-tail",
    "jittered",
    "partition",
    "bounded-unknown",
)

#: Recognised stop conditions.  ``default`` defers to the protocol.
STOP_KINDS = ("default", "decided", "halted", "never")


def _normalize(value: Any) -> Any:
    """Recursively normalise nested containers to JSON-stable shapes.

    Tuples become lists and mappings become plain dicts so that a spec
    compares equal to its JSON round-trip.
    """

    if isinstance(value, Mapping):
        return {str(k): _normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    return value


def integral(name: str, value: Any) -> int:
    """``value`` as a built-in ``int``, or ``ValueError`` naming ``name``.

    Only integral values are accepted (anything :func:`operator.index`
    takes, such as numpy integers), never a ``bool``: silently truncating
    ``4.9`` to ``4`` or reading ``True`` as ``1`` would run a different
    scenario than the one asked for.
    """

    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, not {value!r}")


def _coerce_id(key: str) -> Any:
    """Turn JSON-stringified node-id keys back into integers when possible."""

    try:
        return int(key)
    except (TypeError, ValueError):
        return key


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully declarative description of one simulated scenario.

    Parameters
    ----------
    protocol:
        Registered protocol name (see :func:`repro.api.available_protocols`).
    n, f:
        Total system size and number of Byzantine nodes.  ``n > 3f`` is the
        paper's resiliency assumption but is deliberately *not* enforced —
        boundary experiments sweep beyond it.
    adversary:
        Registered adversary strategy name for the Byzantine nodes.
    seed:
        Root seed; every stochastic choice of the scenario derives from it.
    max_rounds:
        Round budget; ``None`` defers to the protocol's default.
    inputs / input_params:
        Input-distribution kind and its parameters (see :data:`INPUT_KINDS`).
    delay / delay_params:
        Message-delay model and its parameters (see :data:`DELAY_KINDS`).
    churn:
        Optional membership-dynamics options; interpretation is
        protocol-specific (rates for ``total-order``, join/leave rounds for
        ``iterated-approximate-agreement``).
    params:
        Protocol-specific extras (``message``, ``iterations``,
        ``k_instances``, ``substitution``, ``assumed_f``, …).
    stop:
        Stop condition; ``default`` defers to the protocol.
    trace:
        Record a full event trace during the run.
    """

    protocol: str
    n: int
    f: int
    adversary: str = "silent"
    seed: int = 0
    max_rounds: int | None = None
    inputs: str = "default"
    input_params: Mapping[str, Any] = field(default_factory=dict)
    delay: str = "synchronous"
    delay_params: Mapping[str, Any] = field(default_factory=dict)
    churn: Mapping[str, Any] | None = None
    params: Mapping[str, Any] = field(default_factory=dict)
    stop: str = "default"
    trace: bool = False

    # -- validation ---------------------------------------------------------

    def __post_init__(self) -> None:
        if not isinstance(self.protocol, str) or not self.protocol:
            raise ValueError("protocol must be a non-empty string")
        object.__setattr__(self, "n", integral("n", self.n))
        object.__setattr__(self, "f", integral("f", self.f))
        object.__setattr__(self, "seed", integral("seed", self.seed))
        if not isinstance(self.trace, bool):
            raise ValueError(f"trace must be a bool, not {self.trace!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.f < 0 or self.f >= self.n:
            raise ValueError("f must satisfy 0 <= f < n")
        if self.adversary not in available_strategies():
            raise ValueError(
                f"unknown adversary strategy {self.adversary!r}; "
                f"known: {', '.join(available_strategies())}"
            )
        if self.max_rounds is not None:
            object.__setattr__(
                self, "max_rounds", integral("max_rounds", self.max_rounds)
            )
            if self.max_rounds < 1:
                raise ValueError("max_rounds must be positive")
        if self.inputs not in INPUT_KINDS:
            raise ValueError(
                f"unknown input kind {self.inputs!r}; known: {', '.join(INPUT_KINDS)}"
            )
        if self.delay not in DELAY_KINDS:
            raise ValueError(
                f"unknown delay model {self.delay!r}; known: {', '.join(DELAY_KINDS)}"
            )
        if self.stop not in STOP_KINDS:
            raise ValueError(
                f"unknown stop condition {self.stop!r}; known: {', '.join(STOP_KINDS)}"
            )
        if self.churn is not None and not isinstance(self.churn, Mapping):
            raise ValueError("churn must be a mapping of options (or None)")
        object.__setattr__(self, "input_params", _normalize(self.input_params))
        object.__setattr__(self, "delay_params", _normalize(self.delay_params))
        object.__setattr__(self, "params", _normalize(self.params))
        if self.churn is not None:
            object.__setattr__(self, "churn", _normalize(self.churn))

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A plain, JSON-serialisable dict capturing every field."""

        return {
            "protocol": self.protocol,
            "n": self.n,
            "f": self.f,
            "adversary": self.adversary,
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "inputs": self.inputs,
            "input_params": _normalize(self.input_params),
            "delay": self.delay,
            "delay_params": _normalize(self.delay_params),
            "churn": _normalize(self.churn) if self.churn is not None else None,
            "params": _normalize(self.params),
            "stop": self.stop,
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Reconstruct a spec; rejects unknown keys loudly."""

        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown ScenarioSpec keys: {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        return cls(**dict(data))

    def canonical_json(self) -> str:
        """The canonical serialisation: sorted keys, compact separators.

        This is the byte-stable form both the JSON report writers and the
        run store (:mod:`repro.store`) hash and persist, so a spec has
        exactly one on-disk representation regardless of construction
        order or process.
        """

        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )

    def digest(self) -> str:
        """Stable content digest of the spec (hex SHA-256 of the canonical JSON).

        Independent of dict insertion order, process, platform and
        ``PYTHONHASHSEED``; equal specs always share a digest.  The run
        store combines this with a code-version fingerprint into the
        content-addressed run key.
        """

        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()

    # -- convenience --------------------------------------------------------

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """A copy of this spec with the given fields replaced."""

        payload = self.to_dict()
        payload.update(changes)
        return ScenarioSpec.from_dict(payload)
