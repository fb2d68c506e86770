"""Tests for the unified scenario API (repro.api)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import repro
import repro.workloads
from repro.analysis.properties import (
    approx_outputs_in_range,
    approx_range_reduced,
    chains_are_prefixes,
    consensus_agreement,
    consensus_validity,
)
from repro.api import (
    REGISTRY,
    ScenarioSpec,
    SweepRunner,
    SweepSpec,
    available_protocols,
    build_system,
    run_scenario,
    run_sweep,
)
from repro.harness import run_experiment


# ---------------------------------------------------------------------------
# ScenarioSpec validation and round-tripping
# ---------------------------------------------------------------------------


class TestScenarioSpecValidation:
    def test_minimal_spec_is_valid(self):
        spec = ScenarioSpec(protocol="consensus", n=4, f=1)
        assert spec.adversary == "silent"
        assert spec.inputs == "default"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"protocol": "", "n": 4, "f": 1},
            {"protocol": "consensus", "n": 0, "f": 0},
            {"protocol": "consensus", "n": 4, "f": -1},
            {"protocol": "consensus", "n": 4, "f": 4},
            {"protocol": "consensus", "n": 4, "f": 1, "adversary": "no-such-strategy"},
            {"protocol": "consensus", "n": 4, "f": 1, "max_rounds": 0},
            {"protocol": "consensus", "n": 4, "f": 1, "inputs": "gaussian"},
            {"protocol": "consensus", "n": 4, "f": 1, "delay": "quantum"},
            {"protocol": "consensus", "n": 4, "f": 1, "stop": "eventually"},
            {"protocol": "consensus", "n": 4, "f": 1, "churn": 3},
        ],
    )
    def test_invalid_specs_raise(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(**kwargs)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", 4.9),
            ("n", True),
            ("n", "5"),
            ("f", 1.0),
            ("seed", 2.5),
            ("seed", False),
            ("max_rounds", 30.0),
            ("trace", "no"),
            ("trace", 1),
        ],
    )
    def test_numbers_and_flags_are_not_coerced(self, field, value):
        # int(4.9) would run n=4 and the string "no" is truthy: a spec
        # holds exactly what it was given or is refused.
        kwargs = {"protocol": "consensus", "n": 4, "f": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be"):
            ScenarioSpec(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        payload = ScenarioSpec(protocol="consensus", n=4, f=1).to_dict()
        payload["banana"] = True
        with pytest.raises(ValueError, match="banana"):
            ScenarioSpec.from_dict(payload)

    def test_unknown_protocol_raises_at_build_time(self):
        spec = ScenarioSpec(protocol="raft", n=4, f=1)
        with pytest.raises(KeyError, match="unknown protocol"):
            build_system(spec)

    def test_unsupported_spec_facilities_rejected_at_build_time(self):
        # A facility the builder would silently ignore must be refused, so
        # the spec never misdescribes the execution it produced.
        with pytest.raises(ValueError, match="does not support the 'partition'"):
            build_system(
                ScenarioSpec(
                    protocol="total-order",
                    n=5,
                    f=1,
                    churn={"rounds": 10},
                    delay="partition",
                    delay_params={"sizes": [3, 2]},
                )
            )
        with pytest.raises(ValueError, match="takes no per-node inputs"):
            build_system(
                ScenarioSpec(protocol="rotor-coordinator", n=4, f=1, inputs="binary")
            )
        with pytest.raises(ValueError, match="does not support churn"):
            build_system(
                ScenarioSpec(protocol="consensus", n=4, f=1, churn={"rounds": 5})
            )
        with pytest.raises(ValueError, match="unknown params.*iteratons"):
            build_system(
                ScenarioSpec(
                    protocol="iterated-approximate-agreement",
                    n=4,
                    f=1,
                    params={"iteratons": 3},
                )
            )

    def test_replace(self):
        spec = ScenarioSpec(protocol="consensus", n=4, f=1, seed=3)
        bigger = spec.replace(n=10, f=3)
        assert (bigger.n, bigger.f, bigger.seed) == (10, 3, 3)
        assert spec.n == 4  # original untouched


# ---------------------------------------------------------------------------
# Registry: every protocol builds, runs and satisfies its headline property
# ---------------------------------------------------------------------------

def _canonical_spec(protocol: str) -> ScenarioSpec:
    overrides = {
        "consensus": dict(adversary="consensus-split-vote"),
        "known-f-consensus": dict(adversary="consensus-split-vote"),
        "approximate-agreement": dict(adversary="approx-outlier"),
        "iterated-approximate-agreement": dict(
            adversary="approx-outlier", params={"iterations": 4}
        ),
        "parallel-consensus": dict(params={"k_instances": 3}),
        "total-order": dict(
            n=5,
            f=1,
            adversary="random-noise",
            churn={"rounds": 30, "join_rate": 0.1, "leave_rate": 0.05},
        ),
    }.get(protocol, {})
    base = dict(protocol=protocol, n=7, f=2, seed=5)
    base.update(overrides)
    return ScenarioSpec(**base)


def test_registry_lists_core_and_baseline_protocols():
    names = available_protocols()
    assert len(names) == 10
    assert len(available_protocols(include_baselines=False)) == 7
    for name in names:
        info = REGISTRY.info(name)
        assert info.description
        assert info.default_stop in ("decided", "halted", "never")


@pytest.mark.parametrize("protocol", sorted(REGISTRY))
def test_spec_round_trips_through_json(protocol):
    spec = _canonical_spec(protocol)
    restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert restored == spec


@pytest.mark.parametrize("protocol", sorted(REGISTRY))
def test_build_run_and_headline_property(protocol):
    outcome = run_scenario(_canonical_spec(protocol))
    system, result = outcome.system, outcome.result
    assert system.n == outcome.spec.n and system.f == outcome.spec.f

    if protocol in ("consensus", "known-f-consensus"):
        outputs = outcome.outputs()
        assert consensus_agreement(outputs)
        assert consensus_validity(outputs, system.params["inputs"])
    elif protocol in ("reliable-broadcast", "srikanth-toueg-broadcast"):
        message, source = system.params["message"], system.params["source"]
        for process in outcome.correct_processes().values():
            assert process.has_accepted(message, source)
    elif protocol == "rotor-coordinator":
        assert result.stop_reason == "stop_condition"
        assert all(p.halted for p in outcome.correct_processes().values())
    elif protocol in ("approximate-agreement", "dolev-approx"):
        outputs = outcome.outputs()
        assert approx_outputs_in_range(outputs, system.params["inputs"])
    elif protocol == "iterated-approximate-agreement":
        outputs = outcome.outputs()
        inputs = system.params["inputs"]
        assert approx_outputs_in_range(outputs, inputs)
        assert approx_range_reduced(outputs, inputs)
    elif protocol == "parallel-consensus":
        outputs = outcome.outputs()
        pairs = system.params["pairs"]
        assert all(o == pairs for o in outputs.values())
    elif protocol == "total-order":
        chains = [outcome.network.process(i).chain for i in system.correct_ids]
        assert chains_are_prefixes(chains)
        assert max(len(c) for c in chains) > 0
    else:  # pragma: no cover - fails when a protocol is added untested
        pytest.fail(f"no property check for protocol {protocol!r}")


def test_scenarios_reproduce_from_seed():
    spec = _canonical_spec("consensus")
    first = run_scenario(spec).outputs()
    second = run_scenario(ScenarioSpec.from_dict(spec.to_dict())).outputs()
    assert first == second


# ---------------------------------------------------------------------------
# Sweep expansion
# ---------------------------------------------------------------------------


class TestSweepSpec:
    def test_expansion_covers_grid_and_repetitions(self):
        sweep = SweepSpec(
            protocol="consensus",
            grid={"n": (4, 7), "adversary": ("silent", "crash")},
            repetitions=3,
        )
        scenarios = list(sweep.scenarios())
        assert len(scenarios) == sweep.scenario_count() == 12
        assert {s.n for s in scenarios} == {4, 7}
        assert {s.adversary for s in scenarios} == {"silent", "crash"}
        # derived fault bound: f = ⌊(n − 1)/3⌋
        assert {(s.n, s.f) for s in scenarios} == {(4, 1), (7, 2)}
        # every scenario owns a distinct derived seed
        assert len({s.seed for s in scenarios}) == 12

    def test_dotted_axes_route_into_option_mappings(self):
        sweep = SweepSpec(
            protocol="consensus",
            n=4,
            grid={
                "input_params.ones_fraction": (0.0, 1.0),
                "delay_params.delta": (10,),
                "churn.join_rate": (0.5,),
                "k": (2,),
            },
        )
        scenario = next(iter(sweep.scenarios()))
        assert scenario.input_params["ones_fraction"] in (0.0, 1.0)
        assert scenario.delay_params["delta"] == 10
        assert scenario.churn["join_rate"] == 0.5
        assert scenario.params["k"] == 2

    def test_missing_n_rejected(self):
        with pytest.raises(ValueError, match="needs n"):
            SweepSpec(protocol="consensus", grid={"adversary": ("silent",)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SweepSpec(protocol="consensus", n=4, grid={"adversary": ()})

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"repetitions": 1.5}, "repetitions"),
            ({"repetitions": True}, "repetitions"),
            ({"base_seed": "3"}, "base_seed"),
            ({"grid": {"n": [4.9]}}, "n"),
            ({"f": True}, "f"),
            ({"trace": "no"}, "trace"),
        ],
    )
    def test_numbers_and_flags_are_not_coerced(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be"):
            list(SweepSpec(**{"protocol": "consensus", "n": 4, **kwargs}).scenarios())

    def test_numpy_integers_are_accepted_as_ints(self):
        sweep = SweepSpec(
            protocol="consensus", grid={"n": [np.int64(7)]}, base_seed=np.int64(1)
        )
        (scenario,) = sweep.scenarios()
        assert type(scenario.n) is int and type(scenario.f) is int
        assert scenario.n == 7 and scenario.f == 2

    def test_seed_tags_disambiguate_identical_grids(self):
        plain = SweepSpec(protocol="consensus", n=4, repetitions=2, base_seed=1)
        tagged = SweepSpec(
            protocol="consensus", n=4, repetitions=2, base_seed=1, seed_tags=("other",)
        )
        assert [s.seed for s in plain.scenarios()] != [s.seed for s in tagged.scenarios()]


# ---------------------------------------------------------------------------
# Parallel execution determinism
# ---------------------------------------------------------------------------


class TestSweepRunnerDeterminism:
    SWEEP = SweepSpec(
        protocol="consensus",
        grid={"n": (4, 7), "adversary": ("silent", "consensus-split-vote")},
        repetitions=2,
        base_seed=17,
    )

    def test_parallel_rows_match_sequential(self):
        sequential = SweepRunner(jobs=1).run(self.SWEEP)
        parallel = SweepRunner(jobs=4).run(self.SWEEP)
        assert sequential == parallel
        assert len(sequential) == 8

    def test_aggregated_results_are_byte_identical(self):
        kwargs = dict(
            group_by=("n", "adversary"), metrics=("agreement", "rounds", "messages")
        )
        sequential = run_sweep(self.SWEEP, jobs=1, **kwargs)
        parallel = run_sweep(self.SWEEP, jobs=4, **kwargs)
        assert json.dumps(sequential, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_experiment_jobs_determinism(self):
        sequential = run_experiment("E6", jobs=1)
        parallel = run_experiment("E6", jobs=3)
        assert sequential.to_json() == parallel.to_json()

    def test_default_row_without_row_fn(self):
        rows = SweepRunner().run(SweepSpec(protocol="consensus", n=4, base_seed=2))
        (row,) = rows
        assert row["protocol"] == "consensus"
        assert row["decided"] is True
        assert not math.isnan(row["rounds"])

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_run_sweep_rejects_half_specified_aggregation(self):
        sweep = SweepSpec(protocol="consensus", n=4)
        with pytest.raises(ValueError, match="together"):
            run_sweep(sweep, metrics=("agreement",))
        with pytest.raises(ValueError, match="together"):
            run_sweep(sweep, group_by=("n",))


# ---------------------------------------------------------------------------
# Deprecated shims
# ---------------------------------------------------------------------------


def assert_not_exported(name: str) -> None:
    assert not hasattr(repro, name) and name not in repro.__all__
    assert not hasattr(repro.workloads, name) and name not in repro.workloads.__all__


#: What the removed ``*_system`` helpers produced for ``(7, 2, seed=31)``:
#: (outputs, rounds executed, messages delivered).
SHIM_EXECUTIONS = {
    "reliable_broadcast_system": (
        {33343: "hello", 330280: "hello", 391936: "hello", 878309: "hello",
         917531: "hello"},
        3,
        105,
    ),
    "rotor_coordinator_system": (
        {33343: 917531, 330280: 917531, 391936: 917531, 878309: 917531,
         917531: 917531},
        8,
        140,
    ),
    "approximate_agreement_system": (
        dict.fromkeys((33343, 330280, 391936, 878309, 917531), 44.555819388352326),
        2,
        35,
    ),
}


class TestDeprecatedShims:
    """The ``*_system`` helpers are gone; the ``ScenarioSpec`` route still
    reproduces the executions they produced, pinned as literals."""

    def test_shim_warns_and_matches_api_route(self):
        assert_not_exported("consensus_system")
        outcome = run_scenario(
            ScenarioSpec(
                protocol="consensus",
                n=7,
                f=2,
                adversary="consensus-split-vote",
                seed=23,
                max_rounds=60,
                inputs="binary",
                input_params={"ones_fraction": 0.5},
                params={"substitution": "narrow"},
            )
        )
        assert outcome.result.decided_outputs() == {
            133546: 0, 398476: 0, 757406: 0, 873245: 0, 905662: 0
        }
        assert (outcome.rounds, outcome.messages) == (12, 945)

    @pytest.mark.parametrize(
        "shim,protocol,kwargs,max_rounds",
        [
            ("reliable_broadcast_system", "reliable-broadcast", {}, 12),
            ("rotor_coordinator_system", "rotor-coordinator", {}, 50),
            ("approximate_agreement_system", "approximate-agreement", {}, 8),
        ],
    )
    def test_every_shim_warns_and_is_execution_identical(
        self, shim, protocol, kwargs, max_rounds
    ):
        assert_not_exported(shim)
        outcome = run_scenario(
            ScenarioSpec(
                protocol=protocol, n=7, f=2, seed=31, max_rounds=max_rounds, **kwargs
            )
        )
        outputs, rounds, messages = SHIM_EXECUTIONS[shim]
        assert outcome.result.outputs() == outputs
        assert (outcome.rounds, outcome.messages) == (rounds, messages)

    def test_shim_accepts_explicit_inputs(self):
        assert_not_exported("consensus_system")
        inputs = {300147: 1, 622347: 1, 832060: 1, 878512: 1}
        outcome = run_scenario(
            ScenarioSpec(
                protocol="consensus",
                n=4,
                f=0,
                seed=9,
                max_rounds=40,
                inputs="explicit",
                input_params={"values": inputs},
                params={"substitution": "narrow"},
            )
        )
        assert outcome.system.correct_ids == sorted(inputs)
        assert outcome.result.decided_outputs() == inputs
        assert (outcome.rounds, outcome.messages) == (7, 100)
