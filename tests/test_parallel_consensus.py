"""Tests for Algorithm 5 — EarlyConsensus / ParallelConsensus."""

from __future__ import annotations

import pytest

from repro.adversary import ByzantineProcess, make_strategy
from repro.core.parallel_consensus import (
    BOTTOM,
    ParallelConsensusEngine,
    ParallelConsensusProcess,
    PCInput,
    PCNoPreference,
)
from repro.core.rotor_coordinator import RotorInit
from repro.core.quorums import max_faults_tolerated
from repro.sim import Inbox, SynchronousNetwork
from repro.workloads import build_network, sparse_ids, split_correct_byzantine


def build_pc_network(n, f, pairs_for, strategy="silent", seed=0):
    ids = sparse_ids(n, seed=seed)
    correct, byz = split_correct_byzantine(ids, f, seed=seed + 1)
    spec = build_network(
        correct_factory=lambda node: ParallelConsensusProcess(
            node, input_pairs=pairs_for(node, correct)
        ),
        correct_ids=correct,
        byzantine_ids=byz,
        strategy=strategy,
        seed=seed,
    )
    return spec


def outputs_of(spec):
    return {i: spec.network.process(i).output for i in spec.correct_ids}


def frozen(outputs):
    return {
        i: (tuple(sorted(o.items())) if o is not None else None)
        for i, o in outputs.items()
    }


class TestBottom:
    def test_bottom_is_a_singleton_value(self):
        from repro.core.parallel_consensus import _Bottom

        assert BOTTOM == _Bottom()
        assert hash(BOTTOM) == hash(_Bottom())
        assert BOTTOM != None  # noqa: E711 - deliberate: ⊥ is not None
        assert repr(BOTTOM) == "⊥"


class TestValidityAndAgreement:
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("strategy", ["silent", "consensus-split-vote", "random-noise"])
    def test_shared_pairs_are_output_by_everyone(self, k, strategy):
        shared = {f"key-{i}": i * 11 for i in range(k)}
        spec = build_pc_network(10, 3, lambda node, correct: shared, strategy=strategy, seed=k)
        spec.network.run(max_rounds=60)
        outs = outputs_of(spec)
        assert all(o is not None for o in outs.values())
        assert len(set(frozen(outs).values())) == 1, "agreement violated"
        for o in outs.values():
            assert o == shared, "validity violated"

    def test_pair_held_by_single_node_is_consistent(self):
        # A pair input at only one correct node need not be output, but the
        # output sets must still agree.
        def pairs(node, correct):
            return {"solo": 99} if node == correct[0] else {}

        spec = build_pc_network(10, 3, pairs, strategy="random-noise", seed=4)
        spec.network.run(max_rounds=60)
        outs = outputs_of(spec)
        assert len(set(frozen(outs).values())) == 1

    def test_byzantine_injected_identifier_is_never_output(self):
        # The adversary injects consensus traffic for identifiers no correct
        # node has; agreement requires nobody outputs them.
        spec = build_pc_network(
            10, 3, lambda node, correct: {"real": 1}, strategy="consensus-split-vote", seed=5
        )
        spec.network.run(max_rounds=60)
        for o in outputs_of(spec).values():
            assert set(o) == {"real"}

    def test_disjoint_pairs_still_agree(self):
        def pairs(node, correct):
            return {("owned", node): node % 3}

        spec = build_pc_network(7, 2, pairs, strategy="silent", seed=6)
        spec.network.run(max_rounds=60)
        outs = outputs_of(spec)
        assert len(set(frozen(outs).values())) == 1


class TestTermination:
    def test_unanimous_instances_decide_in_first_phase(self):
        spec = build_pc_network(7, 2, lambda n, c: {"a": 1, "b": 2}, seed=7)
        run = spec.network.run(max_rounds=30)
        assert run.metrics.latest_decision_round() == 7  # 2 init + 5 phase rounds

    def test_engine_all_decided_without_inputs(self):
        engine = ParallelConsensusEngine(1, {})
        for r in range(1, 9):
            engine.step(r, Inbox.empty())
        assert engine.all_decided
        assert engine.outputs == {}


class TestEngineUnit:
    def test_engine_tracks_instances_from_inputs(self):
        engine = ParallelConsensusEngine(1, {"x": 5})
        assert engine.instances == ("x",)
        assert engine.opinion("x") == 5

    def test_new_instance_only_started_in_first_phase(self):
        engine = ParallelConsensusEngine(1, {})
        # Drive through init and first phase without traffic.
        for r in range(1, 8):
            engine.step(r, Inbox.empty())
        assert engine.phase == 1
        # Second phase: a PCInput for an unknown id must be discarded.
        engine.step(8, Inbox.empty())
        engine.step(9, Inbox.from_pairs([(42, PCInput("late", 3))]))
        assert "late" not in engine.instances

    def test_a_round_that_changes_no_state_still_speaks(self):
        # Six known senders and three inputs for "x": neither 1 nor the two
        # ⊥ stand-ins meet 2nv/3, so the state stays as it was and the
        # engine says nopreference.
        engine = ParallelConsensusEngine(1, {"x": 1})
        engine.step(1, Inbox.empty())
        engine.step(2, Inbox.from_pairs([(s, RotorInit()) for s in range(1, 7)]))
        engine.step(3, Inbox.empty())
        before = engine._table
        payloads = engine.step(4, Inbox.from_pairs([(s, PCInput("x", 1)) for s in (2, 3, 4)]))
        assert payloads == [PCNoPreference("x")]
        assert engine._table is before

    def test_allowed_senders_filtering(self):
        engine = ParallelConsensusEngine(1, {"x": 5}, allowed_senders=frozenset({1, 2}))
        engine.step(1, Inbox.empty())
        engine.step(2, Inbox.from_pairs([(99, PCInput("x", 7))]))
        # Sender 99 is outside the allowed set; nv only counts allowed ids.
        assert 99 not in engine._known.ids or engine.nv <= 2


class TestLazyInstanceState:
    def test_inputs_are_not_materialised_before_their_first_phase_round(self):
        engine = ParallelConsensusEngine(1, {"x": 5, "y": 6})
        # The public view exposes the inputs immediately …
        assert engine.instances == ("x", "y")
        assert engine.opinion("x") == 5
        assert not engine.all_decided
        assert not engine.idle
        # … but no per-identifier state exists through the init rounds.
        engine.step(1, Inbox.empty())
        engine.step(2, Inbox.empty())
        assert engine._table.states == ()
        # The first phase round is the first input touch: everything
        # pending materialises and speaks.
        payloads = engine.step(3, Inbox.empty())
        assert {state.instance for state in engine._table.states} == {"x", "y"}
        assert engine._table.pending == ()
        assert [p for p in payloads if isinstance(p, PCInput)] == [
            PCInput("x", 5),
            PCInput("y", 6),
        ]

    def test_engine_killed_before_phase_one_never_allocates_state(self):
        # The total-order run tail: engines created in the last rounds of a
        # run step only through their init rounds and are then dropped.
        engine = ParallelConsensusEngine(1, {f"i{k}": k for k in range(50)})
        engine.step(1, Inbox.empty())
        engine.step(2, Inbox.empty())
        assert engine._table.states == ()
        assert len(engine.instances) == 50

    def test_lazy_engine_matches_eager_outputs(self):
        # End-to-end: a quorum of unanimous inputs still decides each
        # instance exactly as before the lazy rewrite.
        senders = (1, 2, 3, 4)
        engines = {s: ParallelConsensusEngine(s, {"a": 1, "b": 2}) for s in senders}
        inbox = Inbox.empty()
        for local_round in range(1, 9):
            outgoing = {s: e.step(local_round, inbox) for s, e in engines.items()}
            inbox = Inbox.from_pairs(
                [(s, p) for s, payloads in outgoing.items() for p in payloads]
            )
        assert all(e.all_decided for e in engines.values())
        assert all(e.outputs == {"a": 1, "b": 2} for e in engines.values())
