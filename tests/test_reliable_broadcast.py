"""Tests for Algorithm 1 — reliable broadcast in the id-only model."""

from __future__ import annotations

import pytest

from repro.analysis.properties import holds, rb_correctness, rb_relay
from repro.api import ScenarioSpec, build_system
from repro.core.quorums import max_faults_tolerated
from repro.core.reliable_broadcast import Echo, Initial, Present, ReliableBroadcastProcess
from repro.sim import Broadcast


def build_rb(n, f, *, strategy, seed, byzantine_sender=False):
    return build_system(
        ScenarioSpec(
            protocol="reliable-broadcast",
            n=n,
            f=f,
            adversary=strategy,
            seed=seed,
            params={"message": "hello", "byzantine_sender": byzantine_sender},
        )
    )


def run_system(spec, max_rounds=12):
    return spec.network.run(
        max_rounds=max_rounds,
        stop_when=lambda net: all(p.decided for p in net.correct_processes()),
    )


class TestUnitBehaviour:
    def test_sender_broadcasts_initial_in_round_one(self, make_view):
        proc = ReliableBroadcastProcess(5, source=5, message="m")
        out = proc.step(make_view(1))
        assert out == [Broadcast(Initial("m", 5))]

    def test_non_sender_broadcasts_present_in_round_one(self, make_view):
        proc = ReliableBroadcastProcess(7, source=5)
        out = proc.step(make_view(1))
        assert out == [Broadcast(Present())]

    def test_round_two_echoes_only_the_designated_sender(self, make_view):
        proc = ReliableBroadcastProcess(7, source=5)
        proc.step(make_view(1))
        view = make_view(2, [(5, Initial("m", 5)), (9, Initial("fake", 5))])
        out = proc.step(view)
        assert out == [Broadcast(Echo("m", 5))]

    def test_acceptance_requires_two_thirds_of_nv(self, make_view):
        proc = ReliableBroadcastProcess(1, source=5)
        proc.step(make_view(1))
        proc.step(make_view(2, [(i, Present()) for i in range(10, 19)]))  # nv = 9
        # 5 echoes from distinct nodes: 5 < 6 = 2*9/3 → no acceptance yet,
        # but ≥ 3 = 9/3 → relay.
        out = proc.step(make_view(3, [(i, Echo("m", 5)) for i in range(10, 15)]))
        assert Broadcast(Echo("m", 5)) in out
        assert not proc.has_accepted("m", 5)
        # 6 echoes meet the two-thirds quorum (nv is still 9).
        proc.step(make_view(4, [(i, Echo("m", 5)) for i in range(10, 16)]))
        assert proc.has_accepted("m", 5)

    def test_no_double_acceptance_record(self, make_view):
        proc = ReliableBroadcastProcess(1, source=5)
        proc.step(make_view(1))
        proc.step(make_view(2, [(i, Present()) for i in range(10, 13)]))
        echoes = [(i, Echo("m", 5)) for i in range(10, 13)]
        proc.step(make_view(3, echoes))
        proc.step(make_view(4, echoes))
        assert len(proc.accepted) == 1

    def test_never_halts_on_its_own(self, make_view):
        proc = ReliableBroadcastProcess(1, source=1, message="m")
        for r in range(1, 8):
            proc.step(make_view(r))
        assert not proc.halted


class TestCorrectSender:
    @pytest.mark.parametrize("n", [4, 7, 10, 13])
    @pytest.mark.parametrize("strategy", ["silent", "rb-false-echo", "replay"])
    def test_correctness_property(self, n, strategy):
        f = max_faults_tolerated(n)
        spec = build_rb(n, f, strategy=strategy, seed=n * 13 + 1)
        run_system(spec)
        assert holds(
            rb_correctness(
                spec.correct_processes(), spec.params["message"], spec.params["source"]
            )
        )

    def test_acceptance_happens_by_round_three_when_sender_correct(self):
        spec = build_rb(10, 3, strategy="silent", seed=2)
        run_system(spec)
        for i in spec.correct_ids:
            records = spec.network.process(i).accepted
            assert records and records[0].round_index == 3

    def test_relay_property(self):
        spec = build_rb(13, 4, strategy="rb-false-echo", seed=3)
        run_system(spec)
        assert holds(rb_relay(spec.correct_processes()))


class TestUnforgeability:
    @pytest.mark.parametrize("strategy", ["rb-false-echo", "rb-forged-source"])
    def test_fabricated_messages_are_never_accepted(self, strategy):
        spec = build_rb(10, 3, strategy=strategy, seed=5)
        spec.network.run(max_rounds=10, stop_when=lambda net: False)
        for i in spec.correct_ids:
            for record in spec.network.process(i).accepted:
                assert record.message not in ("forged", "phantom")

    def test_no_acceptance_without_any_broadcast(self):
        # The designated sender is correct but broadcasts nothing because it
        # has message None?  Use a system where the source never speaks: all
        # correct nodes only ever see false echoes from the adversary.
        spec = build_rb(
            10, 3, strategy="rb-false-echo", byzantine_sender=True, seed=6
        )
        # The Byzantine "sender" runs the false-echo strategy, so no Initial
        # for a correct source exists; correct nodes must not accept the
        # forged message for a correct victim.
        spec.network.run(max_rounds=10, stop_when=lambda net: False)
        for i in spec.correct_ids:
            proc = spec.network.process(i)
            assert all(rec.message != "forged" for rec in proc.accepted)


class TestByzantineSender:
    def test_equivocating_sender_consistency(self):
        # A Byzantine designated sender may get one (or both, or neither) of
        # its conflicting messages accepted, but acceptance must be
        # consistent across correct nodes (relay property).
        spec = build_rb(
            13, 4, strategy="rb-equivocating-sender", byzantine_sender=True, seed=7
        )
        spec.network.run(max_rounds=12, stop_when=lambda net: False)
        assert holds(rb_relay(spec.correct_processes()))

    def test_silent_byzantine_sender_never_delivers(self):
        spec = build_rb(
            10, 3, strategy="silent", byzantine_sender=True, seed=8
        )
        spec.network.run(max_rounds=10, stop_when=lambda net: False)
        for i in spec.correct_ids:
            assert spec.network.process(i).accepted == ()
