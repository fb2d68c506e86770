"""Registry-aware mutation of scenario specs.

A :class:`SpecMutator` makes one small edit at a time to a
:class:`~repro.api.ScenarioSpec`, always producing a spec the registry
will accept: ops consult :class:`~repro.api.registry.ProtocolInfo` for
what the protocol supports (inputs / churn / delay) and fall back to a
reseed when an op does not apply.  All randomness flows through one
seeded generator, so a mutation trajectory is a pure function of
``(base spec, seed)`` — which is what makes search findings replayable.

The op vocabulary is :data:`MUTATION_OPS`; the Hypothesis-stateful test
layer drives exactly these ops, so what property testing explores and
what the search harness explores is the same space.
"""

from __future__ import annotations

import numpy as np

from ..adversary.registry import available_strategies
from ..api.registry import REGISTRY
from ..api.spec import ScenarioSpec

__all__ = ["MUTATION_OPS", "SpecMutator"]

#: Every mutation op a :class:`SpecMutator` knows, by name.
MUTATION_OPS = (
    "seed",
    "delay",
    "delay-params",
    "adversary",
    "size",
    "inputs",
    "churn",
)

#: Strategies applicable to any protocol.
_GENERIC_STRATEGIES = (
    "silent",
    "crash",
    "replay",
    "equivocate-value",
    "coordinated-equivocation",
    "random-noise",
)

#: Protocol-specific strategy name prefix, per protocol.
_STRATEGY_PREFIX = {
    "consensus": "consensus-",
    "known-f-consensus": "consensus-",
    "parallel-consensus": "consensus-",
    "reliable-broadcast": "rb-",
    "srikanth-toueg-broadcast": "rb-",
    "rotor-coordinator": "rotor-",
    "approximate-agreement": "approx-",
    "iterated-approximate-agreement": "approx-",
    "dolev-approx": "approx-",
}

_APPROX_PROTOCOLS = (
    "approximate-agreement",
    "iterated-approximate-agreement",
    "dolev-approx",
)

#: Input kinds whose parameters are coupled to the node count; a size
#: mutation resets them to the protocol default instead of producing a
#: spec that fails at build time.
_SIZE_COUPLED_INPUTS = ("split", "listed", "explicit")


class SpecMutator:
    """Applies one named mutation op to a spec, deterministically per rng."""

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        max_n: int = 12,
        ops: tuple[str, ...] | None = None,
    ) -> None:
        if max_n < 4:
            raise ValueError("max_n must be at least 4")
        self._rng = rng
        self.max_n = max_n
        self.ops = MUTATION_OPS if ops is None else tuple(ops)
        unknown = sorted(set(self.ops) - set(MUTATION_OPS))
        if unknown or not self.ops:
            raise ValueError(
                f"unknown mutation ops {unknown}; known: {MUTATION_OPS}"
                if unknown
                else "ops must not be empty"
            )

    # -- entry points -------------------------------------------------------

    def mutate(self, spec: ScenarioSpec, op: str | None = None) -> ScenarioSpec:
        """One mutated copy of ``spec`` (picking a random op when unnamed).

        Restricting the constructor's ``ops`` (e.g. dropping ``"delay"``)
        pins the corresponding spec dimension for the whole search — how
        the CI smoke search stays inside the uniform-random delay family.
        """

        if op is None:
            op = self.ops[int(self._rng.integers(0, len(self.ops)))]
        if op not in MUTATION_OPS:
            raise ValueError(f"unknown mutation op {op!r}; known: {MUTATION_OPS}")
        method = getattr(self, "_op_" + op.replace("-", "_"))
        return method(spec)

    def _choice(self, options):
        return options[int(self._rng.integers(0, len(options)))]

    # -- ops ----------------------------------------------------------------

    def _op_seed(self, spec: ScenarioSpec) -> ScenarioSpec:
        return spec.replace(seed=int(self._rng.integers(0, 2**31 - 1)))

    def _op_delay(self, spec: ScenarioSpec) -> ScenarioSpec:
        info = REGISTRY.info(spec.protocol)
        if not info.supports_delay:
            return self._op_seed(spec)
        kinds = ["synchronous", "uniform-random", "heavy-tail", "jittered"]
        if spec.n >= 4:
            kinds += ["partition", "bounded-unknown"]
        kind = self._choice([k for k in kinds if k != spec.delay] or kinds)
        return spec.replace(delay=kind, delay_params=self._default_delay_params(kind, spec))

    def _op_delay_params(self, spec: ScenarioSpec) -> ScenarioSpec:
        if spec.delay == "synchronous":
            return self._op_delay(spec)
        return spec.replace(delay_params=self._default_delay_params(spec.delay, spec))

    def _default_delay_params(self, kind: str, spec: ScenarioSpec) -> dict:
        rng = self._rng
        if kind == "synchronous":
            return {}
        if kind == "uniform-random":
            return {"max_delay": int(rng.integers(2, 9))}
        if kind == "heavy-tail":
            return {
                "alpha": float(self._choice((0.8, 1.2, 1.6, 2.0))),
                "scale": float(self._choice((0.5, 1.0, 2.0))),
                "max_delay": int(self._choice((8, 16))),
            }
        if kind == "jittered":
            return {
                "jitter_probability": float(self._choice((0.05, 0.1, 0.25, 0.5))),
                "max_extra": int(rng.integers(1, 5)),
            }
        # partition / bounded-unknown: split the first half off; the ids
        # beyond the listed sizes form the remainder group, covering any
        # churn-pool extras.
        params: dict = {"sizes": [max(1, spec.n // 2)]}
        if kind == "partition":
            heal = self._choice((None, int(rng.integers(3, 12))))
            if heal is not None:
                params["heal_round"] = heal
        else:
            params["delta"] = int(self._choice((10, 25, 50)))
        return params

    def _op_adversary(self, spec: ScenarioSpec) -> ScenarioSpec:
        prefix = _STRATEGY_PREFIX.get(spec.protocol)
        candidates = list(_GENERIC_STRATEGIES)
        if prefix is not None:
            candidates += [s for s in available_strategies() if s.startswith(prefix)]
        candidates = [s for s in candidates if s != spec.adversary] or candidates
        return spec.replace(adversary=self._choice(sorted(set(candidates))))

    def _op_size(self, spec: ScenarioSpec) -> ScenarioSpec:
        delta = int(self._choice((-2, -1, 1, 2)))
        n = min(max(spec.n + delta, 4), self.max_n)
        f = int(self._rng.integers(0, (n - 1) // 3 + 1))
        changes: dict = {"n": n, "f": f}
        if spec.inputs in _SIZE_COUPLED_INPUTS:
            changes["inputs"] = "default"
            changes["input_params"] = {}
        if spec.delay in ("partition", "bounded-unknown"):
            params = dict(spec.delay_params)
            params["sizes"] = [max(1, n // 2)]
            changes["delay_params"] = params
        return spec.replace(**changes)

    def _op_inputs(self, spec: ScenarioSpec) -> ScenarioSpec:
        info = REGISTRY.info(spec.protocol)
        if not info.supports_inputs:
            return self._op_seed(spec)
        if spec.protocol in _APPROX_PROTOCOLS:
            low = float(self._choice((0.0, 10.0)))
            high = low + float(self._choice((1.0, 50.0, 100.0)))
            return spec.replace(inputs="real", input_params={"low": low, "high": high})
        kind = self._choice(("default", "binary", "alternating"))
        if kind == "binary":
            fraction = float(self._choice((0.25, 0.5, 0.75)))
            return spec.replace(
                inputs="binary", input_params={"ones_fraction": fraction}
            )
        return spec.replace(inputs=kind, input_params={})

    def _op_churn(self, spec: ScenarioSpec) -> ScenarioSpec:
        info = REGISTRY.info(spec.protocol)
        if not info.supports_churn:
            return self._op_seed(spec)
        if spec.protocol == "total-order":
            rounds = int((spec.churn or {}).get("rounds", 30))
            if bool(self._rng.integers(0, 2)):
                churn = {
                    "pattern": "flash-crowd",
                    "rounds": rounds,
                    "burst_round": int(self._rng.integers(3, max(4, rounds // 2))),
                    "burst_size": int(self._rng.integers(2, 7)),
                    "burst_byzantine_fraction": float(self._choice((0.0, 0.3))),
                }
                if bool(self._rng.integers(0, 2)):
                    churn["exodus_round"] = min(rounds, churn["burst_round"] + 5)
                    churn["exodus_fraction"] = float(self._choice((0.3, 0.5, 0.8)))
            else:
                churn = {
                    "pattern": "random",
                    "rounds": rounds,
                    "join_rate": float(self._choice((0.0, 0.1, 0.3))),
                    "leave_rate": float(self._choice((0.0, 0.1, 0.3))),
                    "byzantine_join_fraction": float(self._choice((0.0, 0.2))),
                }
            return spec.replace(churn=churn)
        # approximate-agreement style churn: joiner pool + one departure.
        churn = {
            "pool": 4,
            "join_fraction": float(self._choice((0.0, 0.25, 0.5))),
            "join_start": int(self._rng.integers(2, 5)),
            "leave_round": int(self._rng.integers(4, 8)),
        }
        return spec.replace(churn=churn)
