"""Tests for Algorithm 3 — consensus in the id-only model."""

from __future__ import annotations

import zlib

import pytest

from repro.analysis.properties import agreement, holds, termination, validity
from repro.api import ScenarioSpec, build_system
from repro.core.consensus import INIT_ROUNDS, PHASE_LENGTH, ConsensusProcess
from repro.core.quorums import max_faults_tolerated

ADVERSARIES = [
    "silent",
    "crash",
    "random-noise",
    "consensus-split-vote",
    "consensus-strongprefer-spoofer",
    "rotor-usurper",
]


def build_consensus(n, f, *, ones_fraction, strategy, seed):
    return build_system(
        ScenarioSpec(
            protocol="consensus",
            n=n,
            f=f,
            adversary=strategy,
            seed=seed,
            inputs="binary",
            input_params={"ones_fraction": ones_fraction},
        )
    )


def run_consensus(n, f, *, ones_fraction, strategy, seed):
    spec = build_consensus(n, f, ones_fraction=ones_fraction, strategy=strategy, seed=seed)
    run = spec.network.run(max_rounds=60 + 10 * f)
    outputs = {i: spec.network.process(i).output for i in spec.correct_ids}
    return spec, run, outputs


class TestFastPath:
    def test_unanimous_inputs_decide_in_one_phase(self):
        spec, run, outputs = run_consensus(10, 3, ones_fraction=1.0, strategy="silent", seed=1)
        assert holds(termination(outputs), agreement(outputs))
        assert set(outputs.values()) == {1}
        # 2 init rounds + one 5-round phase
        assert run.metrics.latest_decision_round() == INIT_ROUNDS + PHASE_LENGTH

    def test_unanimous_zero_inputs(self):
        _, _, outputs = run_consensus(7, 2, ones_fraction=0.0, strategy="crash", seed=2)
        assert set(outputs.values()) == {0}

    def test_no_faults_mixed_inputs(self):
        spec, _, outputs = run_consensus(6, 0, ones_fraction=0.5, strategy="silent", seed=3)
        assert holds(termination(outputs), agreement(outputs))
        assert holds(validity(outputs, spec.params["inputs"]))


class TestAgreementAndValidity:
    @pytest.mark.parametrize("strategy", ADVERSARIES)
    @pytest.mark.parametrize("ones_fraction", [0.0, 0.5, 1.0])
    def test_properties_at_maximum_resilience(self, strategy, ones_fraction):
        n = 10
        f = max_faults_tolerated(n)
        # crc32, unlike hash() of a string, is the same in every process,
        # so a failing case replays from its test id.
        seed = zlib.crc32(f"{strategy}/{ones_fraction}".encode()) % 10_000
        spec, _, outputs = run_consensus(
            n, f, ones_fraction=ones_fraction, strategy=strategy, seed=seed
        )
        assert holds(termination(outputs), agreement(outputs)), (
            f"agreement violated under {strategy}"
        )
        assert holds(validity(outputs, spec.params["inputs"]))

    @pytest.mark.parametrize("n", [4, 7, 13])
    def test_properties_across_sizes_with_split_vote(self, n):
        f = max_faults_tolerated(n)
        spec, _, outputs = run_consensus(
            n, f, ones_fraction=0.5, strategy="consensus-split-vote", seed=n * 7
        )
        assert holds(termination(outputs), agreement(outputs))
        assert holds(validity(outputs, spec.params["inputs"]))

    def test_real_valued_inputs(self):
        # Section VII considers real-number inputs (needed for total ordering).
        spec = build_consensus(7, 2, ones_fraction=0.5, strategy="silent", seed=11)
        run = spec.network.run(max_rounds=60)
        outputs = {i: spec.network.process(i).output for i in spec.correct_ids}
        assert holds(termination(outputs), agreement(outputs))


class TestRoundComplexity:
    def test_unanimous_case_is_independent_of_f(self):
        rounds = {}
        for n in (4, 10, 16):
            f = max_faults_tolerated(n)
            _, run, _ = run_consensus(n, f, ones_fraction=1.0, strategy="silent", seed=5)
            rounds[n] = run.metrics.latest_decision_round()
        assert len(set(rounds.values())) == 1

    def test_decision_round_is_linear_in_f(self):
        # O(f) rounds: the decision round grows at most linearly with f even
        # under the split-vote adversary.
        for n in (7, 13, 19):
            f = max_faults_tolerated(n)
            _, run, outputs = run_consensus(
                n, f, ones_fraction=0.5, strategy="consensus-split-vote", seed=n
            )
            decision_round = run.metrics.latest_decision_round()
            assert decision_round is not None
            assert decision_round <= INIT_ROUNDS + PHASE_LENGTH * (f + 2)


class TestTermination:
    def test_all_correct_nodes_eventually_halt(self):
        spec, _, _ = run_consensus(10, 3, ones_fraction=0.5, strategy="consensus-split-vote", seed=13)
        # After deciding, nodes linger for one phase then halt; run() stops
        # at the decision, so step the network a bit further.
        for _ in range(2 * PHASE_LENGTH + 2):
            spec.network.step_round()
        assert all(spec.network.process(i).halted for i in spec.correct_ids)

    def test_output_is_stable_after_decision(self):
        spec, run, outputs = run_consensus(7, 2, ones_fraction=0.5, strategy="silent", seed=17)
        for _ in range(PHASE_LENGTH):
            spec.network.step_round()
        later = {i: spec.network.process(i).output for i in spec.correct_ids}
        assert later == outputs


class TestUnitLevel:
    def test_process_exposes_phase_and_nv(self, make_view):
        proc = ConsensusProcess(1, input_value=1)
        proc.step(make_view(1))
        assert proc.phase == 0
        assert proc.input_value == 1
        assert proc.opinion == 1
        assert proc.output is None

    def test_messages_from_unknown_senders_are_discarded(self):
        # A node that did not participate in initialization must not be able
        # to influence the counts (Algorithm 3's filtering rule).
        from repro.core.consensus import ConsensusInput
        from repro.sim import Inbox, RoundView

        proc = ConsensusProcess(1, input_value=0)
        proc.step(RoundView(1, Inbox.empty()))
        init_inbox = Inbox.from_pairs([(i, payload) for i in (1, 2, 3) for payload in proc._rotor.init_round_one()])
        proc.step(RoundView(2, init_inbox))
        proc.step(RoundView(3, Inbox.empty()))
        assert proc.nv == 3
        # Round 4 (phase round 2): 50 unknown senders flood input(1).
        flood = Inbox.from_pairs([(100 + i, ConsensusInput(1)) for i in range(50)])
        proc.step(RoundView(4, flood))
        assert proc.opinion == 0
