"""Churn-schedule generators: membership replay, id minting, flash crowds."""

from __future__ import annotations

import pytest

from repro.api import ScenarioSpec
from repro.api.sweep import run_scenario
from repro.dynamic.churn import (
    ChurnEvent,
    ChurnSchedule,
    generate_churn_schedule,
    generate_flash_crowd_schedule,
)

from make_delayed_digests import kernel_path


class TestMembershipAt:
    def test_exact_event_round_is_included(self):
        schedule = ChurnSchedule(
            initial_correct=(1, 2, 3),
            initial_byzantine=(),
            events=(
                ChurnEvent(5, 9, "join"),
                ChurnEvent(7, 1, "leave"),
            ),
        )
        # A join at round r is visible from the start of round r onward.
        assert 9 not in schedule.membership_at(4)[0]
        assert 9 in schedule.membership_at(5)[0]
        # A leave at round r removes the node from round r onward.
        assert 1 in schedule.membership_at(6)[0]
        assert 1 not in schedule.membership_at(7)[0]

    def test_byzantine_joiner_lands_in_byzantine_set(self):
        schedule = ChurnSchedule(
            initial_correct=(1, 2, 3),
            initial_byzantine=(4,),
            events=(ChurnEvent(3, 9, "join"),),
            byzantine_joiners=frozenset({9}),
        )
        correct, byzantine = schedule.membership_at(3)
        assert 9 in byzantine and 9 not in correct


class TestGenerateChurnSchedule:
    def test_default_behaviour_unchanged_for_existing_seeds(self):
        # leave_candidates="live" must be the bit-identical historic
        # default — golden fixtures and stored runs depend on it.
        a = generate_churn_schedule(
            initial_correct=6, initial_byzantine=1, rounds=25,
            join_rate=0.4, leave_rate=0.4, seed=11,
        )
        b = generate_churn_schedule(
            initial_correct=6, initial_byzantine=1, rounds=25,
            join_rate=0.4, leave_rate=0.4, seed=11, leave_candidates="live",
        )
        assert a == b

    def test_live_leaves_may_include_joiners(self):
        # The docstring used to promise genesis-only departures while the
        # code drew from all live correct nodes; behaviour (and now doc)
        # is "live".  With aggressive join/leave rates some joiner leaves.
        for seed in range(30):
            schedule = generate_churn_schedule(
                initial_correct=8, initial_byzantine=0, rounds=40,
                join_rate=0.9, leave_rate=0.9, seed=seed,
            )
            genesis = set(schedule.initial_correct)
            joiner_left = any(
                e.kind == "leave" and e.node_id not in genesis
                for e in schedule.events
            )
            if joiner_left:
                return
        pytest.fail("no joiner ever left under leave_candidates='live'")

    def test_genesis_leave_candidates_keep_joiners_alive(self):
        for seed in range(10):
            schedule = generate_churn_schedule(
                initial_correct=8, initial_byzantine=0, rounds=40,
                join_rate=0.9, leave_rate=0.9, seed=seed,
                leave_candidates="genesis",
            )
            genesis = set(schedule.initial_correct)
            assert all(
                e.node_id in genesis
                for e in schedule.events
                if e.kind == "leave"
            )

    def test_unknown_leave_candidates_rejected(self):
        with pytest.raises(ValueError, match="leave_candidates"):
            generate_churn_schedule(
                initial_correct=4, initial_byzantine=0, rounds=10,
                leave_candidates="everyone",
            )

    def test_resiliency_always_preserved(self):
        for seed in range(5):
            schedule = generate_churn_schedule(
                initial_correct=7, initial_byzantine=2, rounds=30,
                join_rate=0.5, leave_rate=0.5,
                byzantine_join_fraction=0.5, seed=seed,
            )
            assert schedule.satisfies_resiliency(30)

    def test_id_pool_collision_with_genesis_id_raises(self):
        # 1_000_000 is the first genesis correct id.
        with pytest.raises(ValueError, match="collides"):
            generate_churn_schedule(
                initial_correct=3, initial_byzantine=0, rounds=60,
                join_rate=1.0, id_pool=iter([1_000_000]), seed=0,
            )

    def test_id_pool_collision_with_issued_id_raises(self):
        with pytest.raises(ValueError, match="collides"):
            generate_churn_schedule(
                initial_correct=3, initial_byzantine=0, rounds=60,
                join_rate=1.0, id_pool=iter([42, 42]), seed=0,
            )

    def test_id_pool_fresh_ids_accepted(self):
        schedule = generate_churn_schedule(
            initial_correct=3, initial_byzantine=0, rounds=20,
            join_rate=1.0, id_pool=iter(range(100, 200)), seed=0,
        )
        joined = {e.node_id for e in schedule.events if e.kind == "join"}
        assert joined and joined <= set(range(100, 200))


class TestFlashCrowd:
    def test_burst_joins_land_on_one_round(self):
        schedule = generate_flash_crowd_schedule(
            initial_correct=6, initial_byzantine=1, rounds=20,
            burst_round=5, burst_size=4, seed=0,
        )
        joins = schedule.joins()
        assert set(joins) == {5} and len(joins[5]) == 4
        assert schedule.satisfies_resiliency(20)

    def test_exodus_prefers_burst_joiners(self):
        schedule = generate_flash_crowd_schedule(
            initial_correct=6, initial_byzantine=0, rounds=20,
            burst_round=4, burst_size=3, exodus_round=10,
            exodus_fraction=0.3, seed=1,
        )
        leaves = schedule.leaves()
        assert set(leaves) == {10}
        burst = {e.node_id for e in schedule.events if e.kind == "join"}
        assert set(leaves[10]) <= burst

    def test_byzantine_burst_respects_resiliency(self):
        schedule = generate_flash_crowd_schedule(
            initial_correct=4, initial_byzantine=1, rounds=20,
            burst_round=5, burst_size=10, burst_byzantine_fraction=1.0,
            seed=2,
        )
        assert schedule.satisfies_resiliency(20)

    def test_parameter_validation(self):
        common = dict(initial_correct=4, initial_byzantine=0, rounds=10)
        with pytest.raises(ValueError, match="burst_round"):
            generate_flash_crowd_schedule(burst_round=11, **common)
        with pytest.raises(ValueError, match="exodus_round"):
            generate_flash_crowd_schedule(burst_round=5, exodus_round=4, **common)
        with pytest.raises(ValueError, match="exodus_fraction"):
            generate_flash_crowd_schedule(exodus_fraction=1.5, **common)
        with pytest.raises(ValueError, match="burst_size"):
            generate_flash_crowd_schedule(burst_size=-1, **common)

    def test_id_pool_guarded_like_random_generator(self):
        with pytest.raises(ValueError, match="collides"):
            generate_flash_crowd_schedule(
                initial_correct=3, initial_byzantine=1, rounds=10,
                burst_round=5, burst_size=2,
                id_pool=iter([2_000_000, 300]), seed=0,
            )


class TestSpecRouting:
    def test_flash_crowd_pattern_via_total_order_spec(self):
        spec = ScenarioSpec(
            protocol="total-order",
            n=7,
            f=1,
            adversary="silent",
            seed=4,
            churn={
                "pattern": "flash-crowd",
                "rounds": 18,
                "burst_round": 5,
                "burst_size": 3,
                "exodus_round": 12,
                "exodus_fraction": 0.4,
            },
        )
        outcome = run_scenario(spec)
        schedule = outcome.system.params["schedule"]
        assert set(schedule.joins()) == {5}
        assert set(schedule.leaves()) == {12}
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_random_pattern_is_the_default_and_unchanged(self):
        base = dict(
            protocol="total-order", n=7, f=1, seed=4,
            churn={"rounds": 15, "join_rate": 0.3, "leave_rate": 0.2},
        )
        explicit = dict(base)
        explicit["churn"] = dict(base["churn"], pattern="random")
        a = run_scenario(ScenarioSpec(**base)).system.params["schedule"]
        b = run_scenario(ScenarioSpec(**explicit)).system.params["schedule"]
        assert a == b

    def test_unknown_pattern_rejected(self):
        spec = ScenarioSpec(
            protocol="total-order", n=7, f=1, seed=4,
            churn={"pattern": "tsunami", "rounds": 10},
        )
        with pytest.raises(ValueError, match="unknown churn pattern"):
            run_scenario(spec)

    # ``vector``/``fast`` cases run the shared delivery path, ``queue``/
    # ``legacy`` cases its per-destination twin.
    @pytest.mark.parametrize("engine", ("fast", "vector", "queue", "legacy"))
    def test_flash_crowd_runs_on_every_engine(self, engine):
        spec = ScenarioSpec(
            protocol="total-order", n=6, f=1, seed=2,
            churn={
                "pattern": "flash-crowd", "rounds": 15,
                "burst_round": 4, "burst_size": 2,
            },
        )
        with kernel_path(engine):
            outcome = run_scenario(spec)
        assert outcome.rounds == 15

    def test_flash_crowd_engines_bit_identical(self):
        spec = ScenarioSpec(
            protocol="total-order", n=6, f=1, seed=2,
            adversary="coordinated-equivocation",
            churn={
                "pattern": "flash-crowd", "rounds": 15,
                "burst_round": 4, "burst_size": 2,
                "exodus_round": 9, "exodus_fraction": 0.5,
            },
            trace=True,
        )
        prints = {}
        for engine in ("vector", "queue"):
            with kernel_path(engine):
                outcome = run_scenario(spec)
            events = tuple(
                (e.kind, e.round_index, e.node_id, e.peer_id, e.payload, e.detail)
                for e in outcome.result.trace
            )
            prints[engine] = (events, outcome.outputs(), outcome.rounds)
        assert prints["vector"] == prints["queue"]
