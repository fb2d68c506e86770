"""Tests for the Section IX constructions (synchrony is necessary).

The Lemma 14/15 executions run as registry specs, as in E6: all-correct
consensus with group A holding input 1 and group B input 0, where only
the delay model varies.
"""

from __future__ import annotations

import pytest

from repro.analysis.properties import agreement, holds, termination
from repro.api import ScenarioSpec, run_scenario
from repro.sim.delays import split_into_groups


def run_partition(delay, sizes=(4, 4), *, seed, max_rounds=60, **delay_params):
    """Run the split-input system under ``delay``; return its outputs and groups."""

    outcome = run_scenario(
        ScenarioSpec(
            protocol="consensus",
            n=sum(sizes),
            f=0,
            inputs="split",
            input_params={"sizes": sizes, "values": (1, 0)},
            delay=delay,
            delay_params={"sizes": sizes, **delay_params},
            seed=seed,
            max_rounds=max_rounds,
        )
    )
    group_a, group_b = split_into_groups(outcome.system.correct_ids, sizes)[:2]
    return outcome, outcome.outputs(), group_a, group_b


class TestLemma14Asynchronous:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partitioned_groups_decide_different_values(self, seed):
        _, outputs, group_a, group_b = run_partition("partition", seed=seed)
        assert holds(termination(outputs)), "each partition must decide on its own"
        assert not holds(agreement(outputs)), "Lemma 14 predicts disagreement"
        assert {outputs[i] for i in group_a} == {1}
        assert {outputs[i] for i in group_b} == {0}

    def test_partition_sizes_are_respected(self):
        _, _, group_a, group_b = run_partition("partition", (3, 5), seed=7)
        assert len(group_a) == 3
        assert len(group_b) == 5


class TestLemma15SemiSynchronous:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bounded_but_unknown_delay_still_disagrees(self, seed):
        _, outputs, _, _ = run_partition("bounded-unknown", seed=seed, delta=40)
        assert holds(termination(outputs))
        assert not holds(agreement(outputs))

    def test_small_delta_restores_agreement(self):
        # When the cross-group delay bound is within the algorithm's decision
        # time the groups hear each other and the construction collapses.
        _, outputs, _, _ = run_partition("bounded-unknown", seed=3, delta=1)
        assert holds(termination(outputs), agreement(outputs))


class TestSynchronousControl:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_synchrony_restores_agreement(self, seed):
        _, outputs, _, _ = run_partition("synchronous", seed=seed, max_rounds=80)
        assert holds(termination(outputs), agreement(outputs)), (
            "the synchronous control must reach agreement"
        )

    def test_outcome_helpers(self):
        outcome, outputs, _, _ = run_partition("synchronous", seed=5, max_rounds=80)
        assert holds(termination(outputs))
        assert holds(agreement(outputs))
        assert outcome.spec.delay == "synchronous"
