"""Tests for the adversary strategies and the Byzantine process wrapper."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.adversary import (
    ByzantineProcess,
    EquivocateValueStrategy,
    MimicStrategy,
    SilentStrategy,
    available_strategies,
    make_strategy,
)
from repro.adversary import base
from repro.adversary.base import AdversaryContext
from repro.api import ScenarioSpec, build_system, run_scenario
from repro.core.reliable_broadcast import ReliableBroadcastProcess
from repro.sim import Broadcast, Inbox, RoundView, Unicast
from repro.sim.rng import make_rng


def view(round_index, pairs=()):
    return RoundView(round_index=round_index, inbox=Inbox.from_pairs(pairs))


class TestRegistry:
    def test_all_registered_strategies_instantiate(self):
        for name in available_strategies():
            strategy = make_strategy(name)
            assert strategy is not None

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="unknown adversary strategy"):
            make_strategy("does-not-exist")

    def test_kwargs_are_forwarded(self):
        strategy = make_strategy("consensus-split-vote", value_a=7, value_b=9)
        assert strategy.value_a == 7 and strategy.value_b == 9

    def test_registry_contains_generic_and_protocol_attacks(self):
        names = set(available_strategies())
        assert {"silent", "crash", "consensus-split-vote", "approx-outlier"} <= names


class TestByzantineProcess:
    def test_is_byzantine_and_delegates_to_strategy(self):
        proc = ByzantineProcess(9, SilentStrategy())
        assert proc.is_byzantine
        assert proc.step(view(1)) == []

    def test_known_ids_accumulate_across_rounds(self):
        captured = {}

        class Spy(SilentStrategy):
            def act(self, ctx: AdversaryContext):
                captured["known"] = set(ctx.known_ids)
                return []

        proc = ByzantineProcess(9, Spy())
        proc.step(view(1, [(1, "a")]))
        proc.step(view(2, [(2, "b")]))
        assert captured["known"] == {1, 2}

    def test_equivocation_splits_destinations(self):
        strategy = EquivocateValueStrategy(payload_a="A", payload_b="B")
        proc = ByzantineProcess(9, strategy)
        out = proc.step(view(2, [(1, "x"), (2, "x"), (3, "x"), (4, "x")]))
        assert all(isinstance(o, Unicast) for o in out)
        payloads = {o.payload for o in out}
        assert payloads == {"A", "B"}

    def test_mimic_strategy_behaves_like_a_correct_process(self):
        strategy = MimicStrategy(lambda node_id: ReliableBroadcastProcess(node_id, source=node_id, message="m"))
        proc = ByzantineProcess(5, strategy)
        out = proc.step(view(1))
        assert len(out) == 1 and isinstance(out[0], Broadcast)

    def test_never_forges_sender_field(self):
        # The network stamps the true sender on every envelope; a Byzantine
        # node influences receivers only through payload content.  This is an
        # end-to-end check: the receiver's inbox attributes the adversary's
        # messages to the adversary's own id.
        spec = build_system(
            ScenarioSpec(
                protocol="consensus",
                n=4,
                f=1,
                adversary="consensus-split-vote",
                seed=1,
                trace=True,
                inputs="binary",
                input_params={"ones_fraction": 0.5},
            )
        )
        spec.network.run(max_rounds=10, stop_when=lambda net: False)
        byz = set(spec.byzantine_ids)
        from repro.sim import EventKind

        for event in spec.network.trace.of_kind(EventKind.MESSAGE_DELIVERED):
            if event.peer_id in byz:
                assert event.peer_id in byz  # attribution is to the true sender


class TestStrategyBehaviours:
    def test_silent_sends_nothing_ever(self):
        proc = ByzantineProcess(1, make_strategy("silent"))
        assert all(proc.step(view(r)) == [] for r in range(1, 6))

    def test_crash_stops_after_configured_round(self):
        proc = ByzantineProcess(1, make_strategy("crash", crash_after_round=2))
        assert proc.step(view(1)) != []
        assert proc.step(view(2)) != []
        assert proc.step(view(3)) == []

    def test_replay_rebroadcasts_received_payloads(self):
        proc = ByzantineProcess(1, make_strategy("replay"))
        out = proc.step(view(2, [(3, "hello"), (4, "world")]))
        assert {o.payload for o in out} == {"hello", "world"}

    def test_random_noise_is_deterministic_per_seed(self):
        a = ByzantineProcess(1, make_strategy("random-noise"), seed=5)
        b = ByzantineProcess(1, make_strategy("random-noise"), seed=5)
        assert a.step(view(1)) == b.step(view(1))

    def test_random_noise_draws_what_an_eager_generator_would(self):
        proc = ByzantineProcess(1, make_strategy("random-noise"), seed=5)
        drawn = [proc.step(view(r))[0].payload for r in range(1, 7)]
        eager = make_rng(5)
        assert drawn == [("noise", int(eager.integers(0, 1_000_000)), 0) for _ in range(6)]

    def test_delayed_strategy_waits(self):
        from repro.adversary import DelayedStrategy

        inner = EquivocateValueStrategy()
        proc = ByzantineProcess(1, DelayedStrategy(inner=inner, start_round=4))
        assert proc.step(view(2, [(2, "x")])) == []
        assert proc.step(view(4, [(2, "x")])) != []


class TestGeneratorOnFirstUse:
    """A Byzantine node's generator is made only when a strategy draws."""

    def test_silent_scale_run_makes_no_byzantine_generator(self):
        # broadcast-scale's largest spec: 1,333 silent attackers.
        spec = ScenarioSpec(
            protocol="approximate-agreement", n=4000, f=1333, adversary="silent", seed=3
        )
        with mock.patch.object(base, "make_rng", wraps=make_rng) as made:
            outcome = run_scenario(spec)
        assert len(outcome.system.byzantine_ids) == 1333
        assert outcome.result.stop_reason == "stop_condition"
        assert made.call_count == 0

    def test_a_drawing_strategy_makes_one_generator_per_node(self):
        with mock.patch.object(base, "make_rng", wraps=make_rng) as made:
            proc = ByzantineProcess(1, make_strategy("random-noise"), seed=9)
            assert made.call_count == 0
            for r in range(1, 5):
                proc.step(view(r))
        made.assert_called_once_with(9)

    def test_context_persists_across_rounds(self):
        contexts = []

        class Spy(SilentStrategy):
            def act(self, ctx: AdversaryContext):
                contexts.append((ctx, ctx.round_index))
                return []

        proc = ByzantineProcess(9, Spy(), seed=4)
        proc.step(view(1))
        proc.step(view(2))
        ctx = contexts[0][0]
        assert contexts[1][0] is ctx
        assert [r for _, r in contexts] == [1, 2]
        assert ctx.node_id == 9 and ctx.seed == 4
        # The round's inbox is released with the round.
        assert ctx.view is None
