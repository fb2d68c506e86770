"""Delay-model edge cases.

Covers the ungrouped-node semantics of the partition-style models (the
pre-fix ``-1`` sentinel let two ungrouped nodes — churn joiners in
particular — talk synchronously through any partition), the
``heal_round <= sent_round`` causality boundary, ``split_into_groups``
validation, and full ``HeavyTailDelay`` and ``JitteredSynchronousDelay``
runs against digests recorded by two independent kernels
(``tests/make_delayed_digests.py``).
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec
from repro.api.sweep import run_scenario
from repro.sim import (
    BoundedUnknownDelay,
    HeavyTailDelay,
    JitteredSynchronousDelay,
    PartitionDelay,
    UniformRandomDelay,
    make_rng,
    split_into_groups,
)
from repro.sim.delays import UNGROUPED_POLICIES

from make_delayed_digests import FIXTURE_PATH, digest, spec_key

with FIXTURE_PATH.open() as handle:
    DELAYED_DIGESTS = json.load(handle)["digests"]

NEVER = 1_000_000  # the "effectively never" horizon PartitionDelay uses


class TestUngroupedPolicy:
    def test_policies_constant(self):
        assert UNGROUPED_POLICIES == ("isolated", "default_group")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown ungrouped policy"):
            PartitionDelay(groups=(frozenset({1}),), ungrouped="clique")
        with pytest.raises(ValueError, match="unknown ungrouped policy"):
            BoundedUnknownDelay(groups=(frozenset({1}),), ungrouped="clique")

    def test_isolated_is_the_default(self):
        assert PartitionDelay(groups=()).ungrouped == "isolated"
        assert BoundedUnknownDelay(groups=()).ungrouped == "isolated"

    def test_two_ungrouped_nodes_do_not_tunnel_through_a_partition(self):
        # The regression the -1 sentinel caused: 7 and 8 are absent from
        # the groups, compared equal, and crossed the partition in one
        # round.  Isolated semantics treats the pair as cross-group.
        model = PartitionDelay(groups=(frozenset({1, 2}), frozenset({3, 4})))
        rng = make_rng(0)
        assert model.delivery_round(7, 8, 3, rng) >= NEVER

    def test_ungrouped_to_grouped_is_cross_group_when_isolated(self):
        model = PartitionDelay(groups=(frozenset({1, 2}),))
        rng = make_rng(0)
        assert model.delivery_round(7, 1, 3, rng) >= NEVER  # ungrouped sender
        assert model.delivery_round(1, 7, 3, rng) >= NEVER  # ungrouped dest

    def test_isolated_node_still_reaches_itself(self):
        model = PartitionDelay(groups=(frozenset({1}),))
        assert model.delivery_round(7, 7, 3, make_rng(0)) == 4

    def test_default_group_restores_the_historic_clique(self):
        model = PartitionDelay(
            groups=(frozenset({1, 2}),), ungrouped="default_group"
        )
        rng = make_rng(0)
        assert model.delivery_round(7, 8, 3, rng) == 4  # both ungrouped
        assert model.delivery_round(7, 1, 3, rng) >= NEVER  # mixed stays cross

    def test_bounded_unknown_ungrouped_pays_delta(self):
        model = BoundedUnknownDelay(groups=(frozenset({1, 2}),), delta=9)
        rng = make_rng(0)
        assert model.delivery_round(7, 8, 3, rng) == 12
        assert (
            BoundedUnknownDelay(
                groups=(frozenset({1, 2}),), delta=9, ungrouped="default_group"
            ).delivery_round(7, 8, 3, rng)
            == 4
        )


class TestJoinerCrossesPartitionMidRun:
    """End-to-end regression: a churn joiner must not bypass the partition.

    iterated-approximate-agreement supports churn *and* delay.  The spec's
    partition groups only cover the genesis ids when ``sizes`` exhausts
    ``n`` — the joiners drawn from the churn pool land in the remainder
    group (ids beyond the listed sizes), so the registry keeps them
    covered; this test instead drives the raw model the way the pre-fix
    sentinel failed.
    """

    def test_joiners_outside_groups_stay_isolated(self):
        # Two "joiners" (9, 10) minted after the partition was built: under
        # the old sentinel they formed a synchronous clique with each
        # other; now every cross pair is partitioned.
        model = PartitionDelay(groups=(frozenset({1, 2}), frozenset({3, 4})))
        rng = make_rng(0)
        for sender, dest in [(9, 10), (10, 9), (9, 1), (3, 10)]:
            assert model.delivery_round(sender, dest, 5, rng) >= NEVER

    def test_registry_remainder_group_covers_churn_pool(self):
        # The registry resolves the partition over *all* minted ids
        # (pool extras included): the spec lists sizes for the first half
        # only, and the remainder group absorbs the rest, so a joiner is
        # grouped — and partitioned — from round one.
        spec = ScenarioSpec(
            protocol="iterated-approximate-agreement",
            n=6,
            f=1,
            adversary="silent",
            seed=3,
            delay="partition",
            delay_params={"sizes": [3]},
            churn={"pool": 4, "join_fraction": 0.5, "join_start": 3},
            params={"iterations": 3},
        )
        outcome = run_scenario(spec)
        model = outcome.system.network._delay_model
        joiners = outcome.system.params["joiners"]
        assert joiners, "scenario must actually exercise joiners"
        covered = set().union(*model.groups)
        assert set(joiners) <= covered

    def test_registry_ungrouped_option_round_trips(self):
        spec = ScenarioSpec(
            protocol="consensus",
            n=4,
            f=1,
            seed=0,
            delay="partition",
            delay_params={"sizes": [2], "ungrouped": "default_group"},
        )
        outcome = run_scenario(spec)
        assert outcome.system.network._delay_model.ungrouped == "default_group"
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestHealRoundBoundary:
    def test_heal_round_at_or_before_send_still_respects_causality(self):
        model = PartitionDelay(
            groups=(frozenset({1}), frozenset({2})), heal_round=3
        )
        rng = make_rng(0)
        # Sent before the heal: delivered at the heal round.
        assert model.delivery_round(1, 2, 1, rng) == 3
        # Sent at / after the heal: delivery can never precede sent+1.
        assert model.delivery_round(1, 2, 3, rng) == 4
        assert model.delivery_round(1, 2, 7, rng) == 8


class TestNewModels:
    def test_heavy_tail_bounds_and_validation(self):
        model = HeavyTailDelay(alpha=0.8, scale=2.0, max_delay=5)
        rng = make_rng(1)
        for _ in range(500):
            delay = model.delivery_round(1, 2, 10, rng) - 10
            assert 1 <= delay <= 5
        for bad in (
            dict(alpha=0),
            dict(scale=0),
            dict(max_delay=0),
        ):
            with pytest.raises(ValueError):
                HeavyTailDelay(**bad)

    def test_heavy_tail_has_a_tail(self):
        model = HeavyTailDelay(alpha=1.0, scale=2.0, max_delay=10)
        rng = make_rng(2)
        delays = {model.delivery_round(1, 2, 0, rng) for _ in range(500)}
        assert len(delays) > 3  # genuinely multi-round, not degenerate

    def test_jittered_bounds_and_validation(self):
        model = JitteredSynchronousDelay(jitter_probability=0.5, max_extra=3)
        rng = make_rng(3)
        delays = [model.delivery_round(1, 2, 10, rng) - 10 for _ in range(300)]
        assert set(delays) <= {1, 2, 3, 4}
        assert 1 in set(delays) and max(delays) > 1
        with pytest.raises(ValueError):
            JitteredSynchronousDelay(jitter_probability=1.5)
        with pytest.raises(ValueError):
            JitteredSynchronousDelay(max_extra=0)

    def test_zero_jitter_is_synchronous_in_behaviour(self):
        model = JitteredSynchronousDelay(jitter_probability=0.0)
        rng = make_rng(4)
        assert all(model.delivery_round(1, 2, r, rng) == r + 1 for r in range(20))

    @pytest.mark.parametrize("delay,delay_params", [
        ("heavy-tail", {"alpha": 1.2, "scale": 1.0, "max_delay": 8}),
        ("jittered", {"jitter_probability": 0.3, "max_extra": 2}),
    ])
    @pytest.mark.parametrize("seed", (0, 1))
    def test_queue_and_legacy_bit_identical_for_new_models(
        self, delay, delay_params, seed
    ):
        spec = ScenarioSpec(
            protocol="consensus",
            n=5,
            f=1,
            adversary="consensus-split-vote",
            seed=seed,
            delay=delay,
            delay_params=delay_params,
            max_rounds=40,
            trace=True,
        )
        outcome = run_scenario(spec)
        assert digest(outcome) == DELAYED_DIGESTS[spec_key(spec)]


class TestDeliveryBoundsProperty:
    """Hypothesis contract for every randomised model: a message sent at
    round ``r`` is delivered in ``[r + 1, r + bound]`` whatever the
    parameters — including the degenerate corner (``max_delay=1``,
    extreme ``alpha``/``scale``) where the heavy-tail model used to
    overflow ``int()`` or overshoot its own bound."""

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(min_value=0.01, max_value=100.0),
        scale=st.floats(min_value=1e-6, max_value=1e308),
        max_delay=st.integers(min_value=1, max_value=16),
        sent=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_heavy_tail_delivery_in_bounds(self, alpha, scale, max_delay, sent, seed):
        model = HeavyTailDelay(alpha=alpha, scale=scale, max_delay=max_delay)
        rng = make_rng(seed)
        for _ in range(10):
            delivered = model.delivery_round(1, 2, sent, rng)
            assert sent + 1 <= delivered <= sent + max_delay

    @settings(max_examples=60, deadline=None)
    @given(
        probability=st.floats(min_value=0.0, max_value=1.0),
        max_extra=st.integers(min_value=1, max_value=8),
        sent=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_jittered_delivery_in_bounds(self, probability, max_extra, sent, seed):
        model = JitteredSynchronousDelay(
            jitter_probability=probability, max_extra=max_extra
        )
        rng = make_rng(seed)
        for _ in range(10):
            delivered = model.delivery_round(1, 2, sent, rng)
            assert sent + 1 <= delivered <= sent + 1 + max_extra

    @settings(max_examples=60, deadline=None)
    @given(
        max_delay=st.integers(min_value=1, max_value=16),
        sent=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_uniform_random_delivery_in_bounds(self, max_delay, sent, seed):
        model = UniformRandomDelay(max_delay=max_delay)
        rng = make_rng(seed)
        for _ in range(10):
            delivered = model.delivery_round(1, 2, sent, rng)
            assert sent + 1 <= delivered <= sent + max_delay

    def test_heavy_tail_max_delay_one_is_synchronous(self):
        # The boundary that used to overflow: with max_delay=1 every
        # delivery lands at sent+1 no matter how wild the tail draw is.
        model = HeavyTailDelay(alpha=0.01, scale=1e300, max_delay=1)
        rng = make_rng(0)
        assert all(model.delivery_round(1, 2, r, rng) == r + 1 for r in range(50))

    @pytest.mark.parametrize("bad", [
        dict(alpha=math.nan),
        dict(alpha=math.inf),
        dict(alpha=-1.0),
        dict(scale=math.nan),
        dict(scale=math.inf),
        dict(scale=0.0),
    ])
    def test_degenerate_heavy_tail_params_rejected(self, bad):
        with pytest.raises(ValueError):
            HeavyTailDelay(**bad)

    def test_degenerate_jitter_probability_rejected(self):
        with pytest.raises(ValueError):
            JitteredSynchronousDelay(jitter_probability=math.nan)


class TestSplitIntoGroups:
    def test_undershoot_keeps_trailing_remainder_group(self):
        groups = split_into_groups([5, 1, 9, 3, 7], [2, 2])
        assert groups == (frozenset({1, 3}), frozenset({5, 7}), frozenset({9}))

    def test_oversized_sizes_raise(self):
        with pytest.raises(ValueError, match="sum to 4"):
            split_into_groups([1, 2, 3], [2, 2])

    def test_nonpositive_sizes_raise(self):
        with pytest.raises(ValueError, match="must be positive"):
            split_into_groups([1, 2, 3], [2, 0])
        with pytest.raises(ValueError, match="must be positive"):
            split_into_groups([1, 2, 3], [-1])

    def test_exact_cover_has_no_remainder(self):
        assert split_into_groups([1, 2, 3, 4], [2, 2]) == (
            frozenset({1, 2}),
            frozenset({3, 4}),
        )
