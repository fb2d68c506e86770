"""Tests for Algorithm 6 — total ordering of events in a dynamic network."""

from __future__ import annotations

import pytest

from repro.analysis.properties import chain_prefix, holds
from repro.core import total_order
from repro.core.total_order import TotalOrderProcess, finality_horizon
from repro.adversary import ByzantineProcess, make_strategy
from repro.api import ScenarioSpec, run_scenario
from repro.search import evaluate_outcome
from repro.dynamic import build_total_order_system, generate_churn_schedule
from repro.sim import SynchronousNetwork
from repro.workloads import sparse_ids, split_correct_byzantine


def build_static_system(n, f, *, rounds, strategy="silent", seed=0, event_period=1):
    ids = sparse_ids(n, seed=seed)
    correct, byz = split_correct_byzantine(ids, f, seed=seed + 3)
    members = set(ids)

    def events(node):
        return lambda r: f"ev:{node}:{r}" if r % event_period == 0 else None

    procs = [
        TotalOrderProcess(i, initial_members=members, events=events(i)) for i in correct
    ]
    procs += [ByzantineProcess(b, make_strategy(strategy), seed=seed + b) for b in byz]
    net = SynchronousNetwork(procs, seed=seed)
    net.run(max_rounds=rounds, stop_when=lambda _net: False)
    return net, correct


class TestFinalityHorizon:
    def test_horizon_formula(self):
        assert finality_horizon(4) == 12.0
        assert finality_horizon(7) == 19.5

    def test_horizon_grows_with_membership(self):
        assert finality_horizon(10) > finality_horizon(5)


class TestFinalityOverruns:
    """An instance undecided at its horizon is recorded and reported."""

    SPEC = ScenarioSpec(protocol="total-order", n=7, f=2, adversary="random-noise", seed=1)

    @staticmethod
    def overruns(outcome):
        return [p.finality_overruns for p in outcome.correct_processes().values()]

    @staticmethod
    def reported(outcome):
        return [v.property_name for v in evaluate_outcome(outcome)]

    def test_none_within_the_paper_horizon(self):
        outcome = run_scenario(self.SPEC)
        assert min(len(p.chain) for p in outcome.correct_processes().values()) > 0
        assert self.overruns(outcome) == [{}] * 5
        assert self.reported(outcome) == []

    def test_a_horizon_shorter_than_the_decision_time_is_reported(self, monkeypatch):
        baseline = run_scenario(self.SPEC)
        monkeypatch.setattr(total_order, "finality_horizon", lambda size: 1.0)
        outcome = run_scenario(self.SPEC)
        overruns = self.overruns(outcome)
        assert all(overruns)
        # Each overrun is recorded once, in the round it was first seen,
        # after the (shrunk) horizon of 1 round had passed.
        for per_node in overruns:
            assert all(seen - instance >= 2 for instance, seen in per_node.items())
        assert self.reported(outcome) == ["total-order-finality"]
        # The chain waited for the late instances instead of skipping them,
        # so every committed entry is one the paper's horizon also commits.
        for tight, loose in zip(
            outcome.correct_processes().values(), baseline.correct_processes().values()
        ):
            assert len(tight.chain) >= len(loose.chain)
            assert tight.chain[: len(loose.chain)] == loose.chain

    def test_outside_the_model_an_overrun_is_not_a_violation(self, monkeypatch):
        monkeypatch.setattr(total_order, "finality_horizon", lambda size: 1.0)
        outcome = run_scenario(self.SPEC.replace(n=6))  # n = 3f
        assert any(self.overruns(outcome))
        assert "total-order-finality" not in self.reported(outcome)


class TestStaticMembership:
    def test_chain_prefix_and_growth(self):
        net, correct = build_static_system(7, 2, rounds=50, strategy="random-noise", seed=1)
        chains = [net.process(i).chain for i in correct]
        assert holds(chain_prefix(chains))
        assert min(len(c) for c in chains) > 0, "chain-growth violated"
        # Events from many different protocol rounds must be included.
        instance_rounds = {entry.instance_round for entry in max(chains, key=len)}
        assert len(instance_rounds) >= 10

    def test_chain_is_identically_ordered_everywhere(self):
        net, correct = build_static_system(7, 2, rounds=45, strategy="silent", seed=2)
        chains = [net.process(i).chain for i in correct]
        shortest = min(chains, key=len)
        assert all(holds(chain_prefix([shortest, chain])) for chain in chains)

    def test_events_appear_in_instance_round_order(self):
        net, correct = build_static_system(4, 1, rounds=45, seed=3)
        chain = net.process(correct[0]).chain
        rounds_sequence = [entry.instance_round for entry in chain]
        assert rounds_sequence == sorted(rounds_sequence)

    def test_every_correct_event_is_eventually_ordered(self):
        net, correct = build_static_system(4, 1, rounds=50, seed=4)
        chain = net.process(correct[0]).chain
        ordered_events = {entry.event for entry in chain}
        final_round = net.process(correct[0]).final_round
        # Every event witnessed by a correct node early enough must appear.
        for node in correct:
            for r in range(1, max(final_round - 2, 0)):
                event = f"ev:{node}:{r}"
                assert event in ordered_events

    def test_no_duplicate_chain_entries(self):
        net, correct = build_static_system(4, 1, rounds=45, seed=5)
        chain = net.process(correct[0]).chain
        assert len(chain) == len(set(chain))


class TestDynamicMembership:
    def test_leaving_node_is_removed_from_membership(self):
        ids = sparse_ids(4, seed=6)
        members = set(ids)
        procs = [
            TotalOrderProcess(
                i,
                initial_members=members,
                events={},
                leave_round=8 if i == ids[-1] else None,
            )
            for i in ids
        ]
        net = SynchronousNetwork(procs, seed=6)
        net.run(max_rounds=20, stop_when=lambda _net: False)
        for i in ids[:-1]:
            assert ids[-1] not in net.process(i).members

    def test_joining_node_completes_handshake(self):
        ids = sparse_ids(5, seed=7)
        members = set(ids[:4])
        procs = [
            TotalOrderProcess(i, initial_members=members, events={}) for i in ids[:4]
        ]
        net = SynchronousNetwork(procs, seed=7)
        joiner = TotalOrderProcess(ids[4], initial_members=None, events={})
        net.add_process(joiner, at_round=5)
        net.run(max_rounds=30, stop_when=lambda _net: False)
        assert joiner.joined
        assert joiner.members >= set(ids[:4])
        for i in ids[:4]:
            assert ids[4] in net.process(i).members

    def test_join_handshake_retries_after_silent_rounds(self):
        """A `present` lost to churn is re-broadcast after three silent rounds.

        The joiner starts alone, so its first `present` reaches nobody (the
        broadcast fans out to the active set, which is just itself).  After
        three ack-less rounds it must restart the handshake; the stayers
        arriving later answer the *second* `present` and the join completes.
        """

        from repro.core.total_order import PresentMsg
        from repro.sim.events import EventKind

        ids = sparse_ids(5, seed=9)
        joiner_id, stayers = ids[0], ids[1:]
        joiner = TotalOrderProcess(joiner_id, initial_members=None, events={})
        net = SynchronousNetwork([joiner], seed=9, trace=True)
        for stayer in stayers:
            net.add_process(
                TotalOrderProcess(stayer, initial_members=set(stayers), events={}),
                at_round=5,
            )
        net.run(max_rounds=14, stop_when=lambda _net: False)

        present_rounds = sorted(
            {
                event.round_index
                for event in net.trace
                if event.kind == EventKind.MESSAGE_SENT
                and event.node_id == joiner_id
                and isinstance(event.payload, PresentMsg)
            }
        )
        assert len(present_rounds) >= 2, "handshake was never retried"
        assert present_rounds[1] - present_rounds[0] >= 3, (
            "retry must wait out three silent rounds"
        )
        assert joiner.joined
        assert joiner.members >= set(stayers)
        for stayer in stayers:
            assert joiner_id in net.process(stayer).members

    def test_join_wait_counter_initialized_in_init(self):
        # The retry counter must exist before the first handshake round —
        # it was previously conjured via getattr inside _join_handshake.
        joiner = TotalOrderProcess(1, initial_members=None, events={})
        assert joiner._join_wait == 0

    def test_churn_schedule_preserves_prefix_property(self):
        schedule = generate_churn_schedule(
            initial_correct=5,
            initial_byzantine=1,
            rounds=40,
            join_rate=0.2,
            leave_rate=0.1,
            seed=11,
        )
        assert schedule.satisfies_resiliency(40)
        system = build_total_order_system(schedule, strategy="random-noise", seed=11)
        system.network.run(max_rounds=40, stop_when=lambda _net: False)
        chains = list(system.chains().values())
        assert holds(chain_prefix(chains))
        assert max(len(c) for c in chains) > 0


class TestChurnScheduleGenerator:
    def test_resiliency_invariant(self):
        for seed in range(5):
            schedule = generate_churn_schedule(
                initial_correct=4,
                initial_byzantine=1,
                rounds=30,
                join_rate=0.3,
                leave_rate=0.3,
                byzantine_join_fraction=0.2,
                seed=seed,
            )
            assert schedule.satisfies_resiliency(30)

    def test_membership_replay(self):
        schedule = generate_churn_schedule(
            initial_correct=4, initial_byzantine=1, rounds=20, join_rate=0.5, seed=3
        )
        correct0, byz0 = schedule.membership_at(0)
        assert len(correct0) == 4 and len(byz0) == 1
        correct_end, _ = schedule.membership_at(20)
        joins = sum(1 for e in schedule.events if e.kind == "join")
        leaves = sum(1 for e in schedule.events if e.kind == "leave")
        assert len(correct_end) == 4 + sum(
            1 for e in schedule.events if e.kind == "join" and not schedule.is_byzantine(e.node_id)
        ) - leaves

    def test_event_kind_validation(self):
        from repro.dynamic import ChurnEvent

        with pytest.raises(ValueError):
            ChurnEvent(1, 2, "explode")
