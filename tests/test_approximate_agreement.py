"""Tests for Algorithm 4 — approximate agreement."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis.properties import (
    holds,
    range_containment,
    range_reduction,
    termination,
)
from repro.api import ScenarioSpec, build_system
from repro.core.approximate_agreement import trim_and_midpoint
from repro.core.quorums import max_faults_tolerated


def build_approx(n, f, *, strategy, seed, low=0.0, high=100.0, iterations=1):
    return build_system(
        ScenarioSpec(
            protocol="approximate-agreement",
            n=n,
            f=f,
            adversary=strategy,
            seed=seed,
            inputs="real",
            input_params={"low": low, "high": high},
            params={"iterations": iterations},
        )
    )


class TestTrimAndMidpoint:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trim_and_midpoint([])

    def test_single_value(self):
        assert trim_and_midpoint([5.0]) == 5.0

    def test_trims_one_third_from_both_ends(self):
        # nv = 6 → discard 2 smallest and 2 largest.
        values = [0, 0, 10, 20, 100, 100]
        assert trim_and_midpoint(values) == 15.0

    def test_outliers_are_removed(self):
        values = [50, 51, 52, -1e9, 1e9, 49]
        assert 49 <= trim_and_midpoint(values) <= 52

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_property_output_within_min_max(self, values):
        out = trim_and_midpoint(values)
        assert min(values) - 1e-9 <= out <= max(values) + 1e-9

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.integers(0, 12),
    )
    def test_property_byzantine_values_cannot_escape_correct_range(self, correct, f):
        # With g correct values and at most f ≤ ⌊nv/3⌋-compatible Byzantine
        # values (n > 3f), the output stays within the correct range — this
        # is Lemma 12 as a property test.
        g = len(correct)
        if g + f <= 3 * f:  # enforce n > 3f
            return
        byzantine = [1e12] * ((f + 1) // 2) + [-1e12] * (f // 2)
        out = trim_and_midpoint(list(correct) + byzantine)
        assert min(correct) - 1e-9 <= out <= max(correct) + 1e-9


class TestSingleShotSystem:
    @pytest.mark.parametrize("n", [4, 7, 10, 16])
    @pytest.mark.parametrize("strategy", ["silent", "approx-outlier", "equivocate-value"])
    def test_theorem4_properties(self, n, strategy):
        f = max_faults_tolerated(n)
        spec = build_approx(n, f, strategy=strategy, seed=n * 3 + 1)
        spec.network.run(max_rounds=6)
        inputs = spec.params["inputs"]
        outputs = {i: spec.network.process(i).output for i in spec.correct_ids}
        assert holds(termination(outputs), range_containment(outputs, inputs))
        assert holds(range_reduction(outputs, inputs))

    def test_output_range_at_most_half_of_input_range(self):
        spec = build_approx(13, 4, strategy="approx-outlier", seed=5)
        spec.network.run(max_rounds=6)
        inputs = spec.params["inputs"]
        outputs = [spec.network.process(i).output for i in spec.correct_ids]
        in_range = max(inputs.values()) - min(inputs.values())
        out_range = max(outputs) - min(outputs)
        assert out_range <= in_range / 2 + 1e-9

    def test_identical_inputs_produce_identical_outputs(self):
        spec = build_approx(7, 2, low=42.0, high=42.0, strategy="approx-outlier", seed=6)
        spec.network.run(max_rounds=6)
        outputs = {spec.network.process(i).output for i in spec.correct_ids}
        assert outputs == {42.0}


class TestIteratedConvergence:
    def test_range_halves_every_iteration(self):
        iterations = 5
        spec = build_approx(
            10, 3, iterations=iterations, strategy="approx-outlier", seed=8
        )
        spec.network.run(max_rounds=iterations + 3, stop_when=lambda net: False)
        histories = [spec.network.process(i).history for i in spec.correct_ids]
        ranges = [
            max(h[k] for h in histories) - min(h[k] for h in histories)
            for k in range(iterations + 1)
        ]
        for before, after in zip(ranges, ranges[1:]):
            assert after <= before / 2 + 1e-9

    def test_iterated_outputs_stay_in_input_range(self):
        spec = build_approx(10, 3, iterations=4, strategy="approx-outlier", seed=9)
        spec.network.run(max_rounds=8, stop_when=lambda net: False)
        inputs = spec.params["inputs"]
        for i in spec.correct_ids:
            proc = spec.network.process(i)
            assert min(inputs.values()) <= proc.output <= max(inputs.values())

    def test_history_records_every_iteration(self):
        spec = build_approx(7, 2, iterations=3, strategy="silent", seed=10)
        spec.network.run(max_rounds=7, stop_when=lambda net: False)
        for i in spec.correct_ids:
            history = spec.network.process(i).history
            assert len(history) == 4  # input + 3 iterations
            assert spec.network.process(i).iterations_completed == 3

    def test_iterations_must_be_positive(self):
        from repro.core.approximate_agreement import IteratedApproximateAgreementProcess

        with pytest.raises(ValueError):
            IteratedApproximateAgreementProcess(1, input_value=0.0, iterations=0)
