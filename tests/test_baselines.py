"""Tests for the classic known-(n, f) baseline algorithms."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.properties import agreement, holds, termination, validity
from repro.baselines import (
    DolevApproxProcess,
    KnownFConsensusProcess,
    SrikanthTouegBroadcastProcess,
    trim_f_and_midpoint,
)
from repro.core.quorums import max_faults_tolerated
from repro.workloads import build_network, sparse_ids, split_correct_byzantine


class TestSrikanthToueg:
    def build(self, n, f, strategy="silent", seed=0, assumed_f=None):
        ids = sparse_ids(n, seed=seed)
        correct, byz = split_correct_byzantine(ids, f, seed=seed + 1)
        source = correct[0]
        assumed = f if assumed_f is None else assumed_f
        spec = build_network(
            correct_factory=lambda node: SrikanthTouegBroadcastProcess(
                node, source=source, assumed_f=assumed, message="classic"
            ),
            correct_ids=correct,
            byzantine_ids=byz,
            strategy=strategy,
            seed=seed,
        )
        return spec, source

    def test_correct_sender_is_accepted_by_all(self):
        spec, source = self.build(10, 3)
        spec.network.run(
            max_rounds=10,
            stop_when=lambda net: all(p.decided for p in net.correct_processes()),
        )
        for i in spec.correct_ids:
            assert spec.network.process(i).has_accepted("classic", source)

    def test_false_echo_not_accepted_with_correct_f(self):
        spec, _ = self.build(10, 3, strategy="rb-false-echo")
        spec.network.run(max_rounds=10, stop_when=lambda net: False)
        for i in spec.correct_ids:
            for rec in spec.network.process(i).accepted:
                assert rec.message != "forged"

    def test_misconfigured_f_can_accept_forgeries(self):
        # The classic algorithm's guarantee depends on the configured f being
        # a true upper bound: with assumed_f = 0 the acceptance quorum drops
        # to one echo and three Byzantine echoers forge a message — the
        # failure mode the id-only algorithm structurally avoids.
        spec, _ = self.build(10, 3, strategy="rb-false-echo", assumed_f=0)
        spec.network.run(max_rounds=10, stop_when=lambda net: False)
        forged = any(
            rec.message == "forged"
            for i in spec.correct_ids
            for rec in spec.network.process(i).accepted
        )
        assert forged


class TestKnownFConsensus:
    def build(self, n, f, *, ones_fraction=0.5, strategy="consensus-split-vote", seed=0):
        ids = sparse_ids(n, seed=seed)
        correct, byz = split_correct_byzantine(ids, f, seed=seed + 1)
        inputs = {node: (1 if index < ones_fraction * len(correct) else 0) for index, node in enumerate(correct)}
        spec = build_network(
            correct_factory=lambda node: KnownFConsensusProcess(
                node, input_value=inputs[node], membership=ids, assumed_f=f
            ),
            correct_ids=correct,
            byzantine_ids=byz,
            strategy=strategy,
            seed=seed,
        )
        return spec, inputs

    @pytest.mark.parametrize("n", [4, 7, 10, 13])
    def test_agreement_and_validity(self, n):
        f = max_faults_tolerated(n)
        spec, inputs = self.build(n, f, seed=n)
        spec.network.run(max_rounds=80)
        outputs = {i: spec.network.process(i).output for i in spec.correct_ids}
        assert holds(termination(outputs), agreement(outputs))
        assert holds(validity(outputs, inputs))

    def test_unanimous_inputs_fast_path(self):
        spec, inputs = self.build(10, 3, ones_fraction=1.0, strategy="silent", seed=3)
        run = spec.network.run(max_rounds=40)
        outputs = {i: spec.network.process(i).output for i in spec.correct_ids}
        assert set(outputs.values()) == {1}
        assert run.metrics.latest_decision_round() <= 8

    def test_king_rotation_uses_smallest_identifiers(self):
        ids = list(range(100, 113))
        proc = KnownFConsensusProcess(100, input_value=0, membership=ids, assumed_f=4)
        assert [proc.king_of_phase(k) for k in range(1, 6)] == [100, 101, 102, 103, 104]
        assert proc.king_of_phase(6) == 100


class TestDolevApprox:
    def test_trim_f_and_midpoint(self):
        assert trim_f_and_midpoint([0, 5, 10], 1) == 5
        assert trim_f_and_midpoint([1.0], 0) == 1.0
        with pytest.raises(ValueError):
            trim_f_and_midpoint([], 1)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30), st.integers(0, 9))
    def test_property_output_within_received_range(self, values, f):
        out = trim_f_and_midpoint(values, f)
        assert min(values) - 1e-9 <= out <= max(values) + 1e-9

    def test_correctly_configured_f_tolerates_outliers(self):
        ids = sparse_ids(10, seed=5)
        correct, byz = split_correct_byzantine(ids, 3, seed=6)
        inputs = {node: 50.0 + index for index, node in enumerate(correct)}
        spec = build_network(
            correct_factory=lambda node: DolevApproxProcess(
                node, input_value=inputs[node], assumed_f=3
            ),
            correct_ids=correct,
            byzantine_ids=byz,
            strategy="approx-outlier",
            seed=7,
        )
        spec.network.run(max_rounds=4)
        for i in spec.correct_ids:
            out = spec.network.process(i).output
            assert min(inputs.values()) <= out <= max(inputs.values())

    def test_underestimated_f_lets_outliers_through(self):
        ids = sparse_ids(10, seed=8)
        correct, byz = split_correct_byzantine(ids, 3, seed=9)
        inputs = {node: 50.0 for node in correct}
        spec = build_network(
            correct_factory=lambda node: DolevApproxProcess(
                node, input_value=inputs[node], assumed_f=0
            ),
            correct_ids=correct,
            byzantine_ids=byz,
            strategy="approx-outlier",
            seed=10,
        )
        spec.network.run(max_rounds=4)
        outputs = [spec.network.process(i).output for i in spec.correct_ids]
        assert any(abs(out - 50.0) > 1.0 for out in outputs)
