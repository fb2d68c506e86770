"""Unit and integration tests for the synchronous network engine."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.analysis.properties import agreement, holds, termination
from repro.sim import (
    Broadcast,
    DuplicateNodeError,
    EventKind,
    FixedScheduleDelay,
    MembershipError,
    NullProcess,
    PartitionDelay,
    Process,
    RoundLimitExceeded,
    SynchronousDelay,
    SynchronousNetwork,
    Unicast,
    UniformRandomDelay,
)

#: Delay models standing in for the retired kernel names of parametrized
#: cases: both deliver every message one round later, but only
#: ``SynchronousDelay`` takes the shared columnar path; the fixed schedule
#: is asked per destination and delivers into per-destination inboxes.
DELIVERY_PATHS = {
    "fast": SynchronousDelay,
    "vector": SynchronousDelay,
    "queue": FixedScheduleDelay,
    "legacy": FixedScheduleDelay,
}


class EchoOnce(Process):
    """Broadcasts a greeting in round 1 and records everything it receives."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def step(self, view):
        self.received.append((view.round_index, sorted(view.inbox.items())))
        if view.round_index == 1:
            return [Broadcast(("hello", self.node_id))]
        return ()


class UnicastReplier(Process):
    """Replies to every sender it hears from with a direct message."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.replies_received = 0

    def step(self, view):
        replies = []
        for sender, payload in view.inbox.items():
            if payload == "ping":
                replies.append(Unicast(sender, "pong"))
            if payload == "pong":
                self.replies_received += 1
        if view.round_index == 1:
            return [Broadcast("ping")]
        return replies


class DeciderAfter(Process):
    def __init__(self, node_id, decide_round):
        super().__init__(node_id)
        self._decide_round = decide_round
        self._output = None

    @property
    def output(self):
        return self._output

    def step(self, view):
        if view.round_index >= self._decide_round:
            self._output = "done"
            self.halt()
        return ()


class TestBasicDelivery:
    def test_broadcast_is_delivered_to_everyone_next_round_including_self(self):
        net = SynchronousNetwork([EchoOnce(i) for i in (10, 20, 30)])
        net.step_round()
        net.step_round()
        for node in (10, 20, 30):
            proc = net.process(node)
            round2 = dict(proc.received)[2]
            senders = {s for s, _ in round2}
            assert senders == {10, 20, 30}

    def test_round1_inbox_is_empty(self):
        net = SynchronousNetwork([EchoOnce(1), EchoOnce(2)])
        net.step_round()
        assert dict(net.process(1).received)[1] == []

    def test_unicast_reaches_only_destination(self):
        net = SynchronousNetwork([UnicastReplier(1), UnicastReplier(2)])
        for _ in range(3):
            net.step_round()
        # Each node's round-1 ping reaches both nodes (broadcast includes
        # self), so each node receives exactly two pong replies — one from
        # itself and one from its peer — and nothing more.
        assert net.process(1).replies_received == 2
        assert net.process(2).replies_received == 2

    def test_duplicate_node_ids_are_rejected(self):
        with pytest.raises(DuplicateNodeError):
            SynchronousNetwork([NullProcess(1), NullProcess(1)])

    def test_metrics_count_messages(self):
        net = SynchronousNetwork([EchoOnce(i) for i in range(3)])
        net.step_round()
        # each of the 3 nodes broadcast to 3 destinations
        assert net.metrics.total_messages == 9
        assert net.metrics.total_broadcasts == 3

    def test_payload_accounting_is_off_by_default(self):
        net = SynchronousNetwork([EchoOnce(i) for i in range(3)])
        net.step_round()
        assert net.metrics.total_payload_bytes == 0
        assert net.metrics.peak_payload_bytes == 0

    @pytest.mark.parametrize("engine", ["fast", "vector", "queue", "legacy"])
    def test_payload_accounting_counts_bytes_per_copy(self, engine):
        from repro.sim.messages import payload_nbytes

        net = SynchronousNetwork(
            [EchoOnce(i) for i in range(3)], delay_model=DELIVERY_PATHS[engine]()
        )
        net.enable_payload_accounting()
        net.step_round()
        expected = sum(payload_nbytes(("hello", i)) * 3 for i in range(3))
        assert net.metrics.total_payload_bytes == expected
        assert net.metrics.peak_payload_bytes == max(
            payload_nbytes(("hello", i)) for i in range(3)
        )

    def test_payload_accounting_is_engine_independent(self):
        totals = {}
        for engine in ("vector", "queue"):
            net = SynchronousNetwork(
                [UnicastReplier(i) for i in (1, 2)],
                delay_model=DELIVERY_PATHS[engine](),
            )
            net.enable_payload_accounting()
            for _ in range(3):
                net.step_round()
            totals[engine] = (
                net.metrics.total_payload_bytes,
                net.metrics.peak_payload_bytes,
            )
        assert totals["vector"] == totals["queue"]
        assert totals["vector"][0] > 0


class TestRunLoop:
    def test_run_stops_when_all_correct_decided(self):
        net = SynchronousNetwork([DeciderAfter(i, decide_round=4) for i in range(4)])
        result = net.run(max_rounds=20)
        assert result.stop_reason == "stop_condition"
        assert result.rounds_executed == 4
        outputs = result.outputs()
        assert holds(termination(outputs), agreement(outputs))

    def test_run_hits_round_limit(self):
        net = SynchronousNetwork([NullProcess(1)])
        result = net.run(max_rounds=5)
        assert result.stop_reason == "round_limit"
        assert result.rounds_executed == 5

    def test_round_limit_can_raise(self):
        net = SynchronousNetwork([NullProcess(1)])
        with pytest.raises(RoundLimitExceeded):
            net.run(max_rounds=3, raise_on_limit=True)

    def test_run_result_exposes_outputs(self):
        net = SynchronousNetwork([DeciderAfter(1, 2), DeciderAfter(2, 2)])
        result = net.run(max_rounds=10)
        assert result.outputs() == {1: "done", 2: "done"}
        assert set(result.decided_outputs().values()) == {"done"}
        assert result.metrics.decision_rounds() == {1: 2, 2: 2}


class TestMembership:
    def test_join_at_round(self):
        class GreetOnFirstStep(Process):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.stepped = 0

            def step(self, view):
                self.stepped += 1
                if self.stepped == 1:
                    return [Broadcast(("joined", self.node_id))]
                return ()

        net = SynchronousNetwork([EchoOnce(1)])
        net.add_process(GreetOnFirstStep(2), at_round=3)
        for _ in range(4):
            net.step_round()
        assert 2 in net.active_ids()
        # The late joiner is first stepped in round 3; its greeting is heard
        # by node 1 in round 4.
        round4 = dict(net.process(1).received)[4]
        assert any(sender == 2 for sender, _ in round4)

    def test_leave_at_round_stops_scheduling_and_delivery(self):
        net = SynchronousNetwork([EchoOnce(1), EchoOnce(2)])
        net.remove_process(2, at_round=2)
        net.step_round()
        net.step_round()
        assert 2 not in net.active_ids()
        # The departed node is no longer stepped: it only ever saw round 1.
        assert [r for r, _ in net.process(2).received] == [1]
        # Messages already in flight to the survivors are still delivered.
        round2_senders = {s for s, _ in dict(net.process(1).received)[2]}
        assert round2_senders == {1, 2}

    def test_leave_of_unknown_node_is_an_error(self):
        net = SynchronousNetwork([NullProcess(1)])
        with pytest.raises(MembershipError):
            net.remove_process(99)


class TestDelayModels:
    def test_partition_blocks_cross_group_messages(self):
        delay = PartitionDelay(groups=(frozenset({1}), frozenset({2})))
        net = SynchronousNetwork([EchoOnce(1), EchoOnce(2)], delay_model=delay)
        for _ in range(5):
            net.step_round()
        # node 1 only ever hears itself
        all_senders = {s for _, pairs in net.process(1).received for s, _ in pairs}
        assert all_senders == {1}

    def test_partition_heals_at_heal_round(self):
        delay = PartitionDelay(groups=(frozenset({1}), frozenset({2})), heal_round=4)
        net = SynchronousNetwork([EchoOnce(1), EchoOnce(2)], delay_model=delay)
        for _ in range(5):
            net.step_round()
        senders_by_round = {r: {s for s, _ in pairs} for r, pairs in net.process(1).received}
        assert 2 not in senders_by_round[2]
        assert 2 in senders_by_round[4]

    def test_random_delay_is_bounded(self):
        delay = UniformRandomDelay(max_delay=3)
        net = SynchronousNetwork([EchoOnce(i) for i in range(4)], delay_model=delay, seed=3)
        for _ in range(6):
            net.step_round()
        # every broadcast from round 1 must have arrived by round 4
        received_rounds = [
            r for r, pairs in net.process(0).received if any(p[1][0] == "hello" for p in pairs)
        ]
        assert received_rounds and max(received_rounds) <= 4


class TestRoundLimit:
    def test_round_limit_exception_carries_partial_result(self):
        net = SynchronousNetwork([EchoOnce(i) for i in (1, 2)], trace=True)
        with pytest.raises(RoundLimitExceeded) as excinfo:
            net.run(max_rounds=3, raise_on_limit=True)
        result = excinfo.value.result
        assert excinfo.value.max_rounds == 3
        assert result.rounds_executed == 3
        assert result.stop_reason == "round_limit"
        # partial progress is inspectable: the round-1 broadcasts happened
        assert result.metrics.total_messages == 4
        assert len(result.trace.of_kind(EventKind.ROUND_START)) == 3

    def test_stop_condition_met_on_final_round_does_not_raise(self):
        net = SynchronousNetwork([DeciderAfter(1, decide_round=5)])
        result = net.run(max_rounds=5, raise_on_limit=True)
        assert result.stop_reason == "stop_condition"
        assert result.rounds_executed == 5

    def test_round_limit_without_raise_flag_returns_normally(self):
        net = SynchronousNetwork([NullProcess(1)])
        result = net.run(max_rounds=2, raise_on_limit=False)
        assert result.stop_reason == "round_limit"
        assert result.metrics.total_rounds == 2


class TestMidRunDeparture:
    """Edge cases around nodes leaving while messages are in flight."""

    def test_messages_in_flight_to_departed_node_are_dropped(self):
        net = SynchronousNetwork([EchoOnce(1), EchoOnce(2), EchoOnce(3)])
        net.remove_process(3, at_round=2)
        net.step_round()  # round 1: everyone broadcasts (to 1, 2 and 3)
        net.step_round()  # round 2: node 3 is gone before delivery
        # the departed node never saw round 2
        assert [r for r, _ in net.process(3).received] == [1]
        # but its own round-1 broadcast still reached the survivors
        assert {s for s, _ in dict(net.process(1).received)[2]} == {1, 2, 3}
        # delivered counters only count the survivors' inboxes: 3 senders
        # times 2 surviving destinations
        assert net.metrics.rounds[-1].messages_delivered == 6

    def test_departure_and_shared_inbox_fast_path_agree_with_legacy(self):
        # the shared inbox path against per-destination delivery
        def build(engine):
            net = SynchronousNetwork(
                [EchoOnce(i) for i in (1, 2, 3, 4)],
                trace=True,
                delay_model=DELIVERY_PATHS[engine](),
            )
            net.remove_process(4, at_round=2)
            for _ in range(3):
                net.step_round()
            return [
                (e.kind, e.round_index, e.node_id, e.peer_id, e.payload)
                for e in net.trace
            ]

        assert build("vector") == build("queue")

    def test_unicast_to_node_that_left_is_silently_dropped(self):
        class PesterTheDeparted(Process):
            def step(self, view):
                if view.round_index == 1:
                    return [Unicast(2, "hello?")]
                return ()

        for engine in ("vector", "queue"):
            net = SynchronousNetwork(
                [PesterTheDeparted(1), NullProcess(2)],
                delay_model=DELIVERY_PATHS[engine](),
            )
            net.remove_process(2, at_round=2)
            net.step_round()
            net.step_round()
            assert net.metrics.rounds[-1].messages_delivered == 0

    def test_scheduled_leave_of_unknown_node_raises_when_due(self):
        net = SynchronousNetwork([NullProcess(1)])
        net.remove_process(99, at_round=2)
        net.step_round()
        with pytest.raises(MembershipError):
            net.step_round()

    def test_rejoin_after_leave_is_rejected(self):
        net = SynchronousNetwork([NullProcess(1), NullProcess(2)])
        net.step_round()
        net.remove_process(2)
        with pytest.raises(DuplicateNodeError):
            net.add_process(NullProcess(2))


class TestMembershipSortCache:
    def test_static_membership_sorts_exactly_once(self):
        net = SynchronousNetwork([EchoOnce(i) for i in (3, 1, 2)])
        for _ in range(6):
            net.step_round()
        # the old engine re-sorted the active set up to 2 + broadcasts
        # times per round; the cache makes it exactly one rebuild total
        assert net.sorted_rebuilds == 1

    def test_churn_invalidates_the_cache_once_per_event(self):
        net = SynchronousNetwork([EchoOnce(1), EchoOnce(2)])
        net.add_process(EchoOnce(3), at_round=3)
        net.remove_process(1, at_round=5)
        for _ in range(7):
            net.step_round()
        # initial build + join + leave
        assert net.sorted_rebuilds == 3
        assert net.active_ids() == frozenset({2, 3})

    def test_cache_reflects_immediate_membership_changes(self):
        net = SynchronousNetwork([NullProcess(1), NullProcess(3)])
        net.step_round()
        assert [p.node_id for p in net.correct_processes()] == [1, 3]
        net.add_process(NullProcess(2))
        assert [p.node_id for p in net.correct_processes()] == [1, 2, 3]
        net.remove_process(3)
        assert [p.node_id for p in net.correct_processes()] == [1, 2]


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def build():
            return SynchronousNetwork(
                [EchoOnce(i) for i in range(5)], seed=42, trace=True
            )

        first, second = build(), build()
        first.run(max_rounds=4, stop_when=lambda n: False)
        second.run(max_rounds=4, stop_when=lambda n: False)
        events_first = [(e.kind, e.round_index, e.node_id, e.peer_id) for e in first.trace]
        events_second = [(e.kind, e.round_index, e.node_id, e.peer_id) for e in second.trace]
        assert events_first == events_second


class ViewRecorder(Process):
    """Broadcasts every round, unicasts to ``target`` in round 2 instead,
    and keeps every view it is handed."""

    def __init__(self, node_id, target=None):
        super().__init__(node_id)
        self.target = target
        self.views = {}

    def step(self, view):
        self.views[view.round_index] = view
        if view.round_index == 2 and self.target is not None:
            return [Unicast(self.target, ("direct", self.node_id))]
        return [Broadcast(("tick", self.node_id, view.round_index))]


class TestOneViewPerInbox:
    """The round loop builds one :class:`RoundView` per distinct inbox."""

    @staticmethod
    def views_of(net, round_index):
        return [net.process(i).views[round_index] for i in sorted(net.active_ids())]

    def test_a_shared_round_hands_every_process_the_same_view(self):
        net = SynchronousNetwork([ViewRecorder(i) for i in (3, 1, 7, 5)])
        for _ in range(3):
            net.step_round()
        for round_index in (1, 2, 3):
            views = self.views_of(net, round_index)
            assert all(view is views[0] for view in views)
            assert views[0].round_index == round_index
        assert len(self.views_of(net, 3)[0].inbox) == 4

    @pytest.mark.parametrize("delay", [SynchronousDelay, FixedScheduleDelay])
    def test_a_per_destination_round_builds_one_view_per_inbox_object(self, delay):
        # Round 2 unicasts everything to node 1: in round 3 node 1 gets its
        # own inbox and the others share the round's empty inbox.
        procs = [ViewRecorder(i, target=1) for i in (1, 2, 3, 4)]
        net = SynchronousNetwork(procs, delay_model=delay())
        for _ in range(3):
            net.step_round()
        for round_index in (2, 3):
            views = self.views_of(net, round_index)
            inboxes = {id(view.inbox) for view in views}
            assert len({id(view) for view in views}) == len(inboxes)
        views = self.views_of(net, 3)
        assert len(views[0].inbox) == 4
        assert all(len(view.inbox) == 0 for view in views[1:])
        assert all(view is views[1] for view in views[1:])
        if delay is FixedScheduleDelay:
            # Per-destination delivery never shares a non-empty inbox.
            assert len({id(view) for view in self.views_of(net, 2)}) == 4

    def test_delivery_counters_follow_the_inbox_sizes(self):
        procs = [ViewRecorder(i, target=1) for i in (1, 2, 3)]
        net = SynchronousNetwork(procs)
        for _ in range(3):
            net.step_round()
        assert [r.messages_delivered for r in net.metrics.rounds] == [0, 9, 3]
        assert list(net.metrics.per_node_delivered.items()) == [(1, 6), (2, 3), (3, 3)]


class Observer(Process):
    """A Byzantine stand-in that logs its ``observe_system`` calls and steps."""

    def __init__(self, node_id, log, *, byzantine=True, halt_at=None):
        super().__init__(node_id)
        self._byzantine = byzantine
        self._log = log
        self._halt_at = halt_at

    @property
    def is_byzantine(self):
        return self._byzantine

    def observe_system(self, system):
        self._log.append(("observe", system.round_index, self.node_id, id(system)))

    def step(self, view):
        self._log.append(("step", view.round_index, self.node_id))
        if view.round_index == self._halt_at:
            self.halt()
        return ()


class Mute(Process):
    """A Byzantine process without an ``observe_system`` hook."""

    @property
    def is_byzantine(self):
        return True

    def step(self, view):
        return ()


def test_observe_system_reaches_scheduled_byzantine_observers_only():
    log = []
    net = SynchronousNetwork(
        [
            Observer(1, log),
            Observer(2, log, byzantine=False),  # correct: never observes
            Mute(3),
            Observer(4, log, halt_at=2),  # halted: neither observed nor stepped
            NullProcess(6),
        ]
    )
    net.add_process(Observer(5, log), at_round=3)
    net.remove_process(1, at_round=4)
    for _ in range(4):
        net.step_round()
    calls = [(kind, r, node) for kind, r, node, *_ in log]
    assert calls == [
        ("observe", 1, 1), ("step", 1, 1), ("step", 1, 2),
        ("observe", 1, 4), ("step", 1, 4),
        ("observe", 2, 1), ("step", 2, 1), ("step", 2, 2),
        ("observe", 2, 4), ("step", 2, 4),
        ("observe", 3, 1), ("step", 3, 1), ("step", 3, 2),
        ("observe", 3, 5), ("step", 3, 5),
        ("step", 4, 2),
        ("observe", 4, 5), ("step", 4, 5),
    ]
    # One SystemView per round, shared by that round's observers.
    per_round = {}
    for kind, r, _node, *rest in log:
        if kind == "observe":
            per_round.setdefault(r, set()).add(rest[0])
    assert all(len(ids) == 1 for ids in per_round.values())


class CountedVote:
    """A payload that counts the calls of its ``__hash__``."""

    hashes = 0

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        CountedVote.hashes += 1
        return hash(self.value)

    def __eq__(self, other):
        return isinstance(other, CountedVote) and other.value == self.value


class SendsOnce(Process):
    """Returns ``actions`` in round 1, the same object for every node it
    was given to, keeps every inbox, and halts after round 1 if asked."""

    def __init__(self, node_id, actions, *, halts=False):
        super().__init__(node_id)
        self.actions = actions
        self.halts = halts
        self.inboxes = {}

    def step(self, view):
        self.inboxes[view.round_index] = view.inbox
        if self.halts:
            self.halt()
        return self.actions if view.round_index == 1 else ()


class TestSharedActionLists:
    """Senders that return one action tuple are staged and delivered once."""

    IDS = range(64)

    def split_vote_network(self, halted=()):
        # 21 colluders return one tuple of 64 unicasts, a first vote to the
        # lower half and a second to the upper half; the other 43 nodes
        # each broadcast one payload.
        votes = CountedVote(0), CountedVote(1)
        split = tuple(Unicast(dest, votes[dest >= 32]) for dest in self.IDS)
        return SynchronousNetwork(
            [SendsOnce(i, split if i < 21 else [Broadcast(("vote", i))],
                       halts=i in halted)
             for i in self.IDS]
        )

    def test_a_shared_unicast_tuple_is_hashed_per_payload_not_per_message(self):
        # Keying each recipient's 64 rows hashed the votes 1,430 times in
        # this round; numbering the shared tuple's payloads once hashes
        # them twice, and building the two inboxes once per row.
        net = self.split_vote_network()
        CountedVote.hashes = 0
        net.step_round()
        net.step_round()
        assert CountedVote.hashes <= 64
        assert net.metrics.rounds[0].messages_sent == 4096
        inboxes = [net.process(i).inboxes[2] for i in self.IDS]
        assert len({id(inbox) for inbox in inboxes}) == 2
        assert inboxes[0] is inboxes[31] and inboxes[32] is inboxes[63]
        assert len(inboxes[0]) == len(inboxes[63]) == 64

    def test_pending_messages_counts_each_destination_of_a_shared_list(self):
        net = self.split_vote_network()
        net.step_round()
        assert net.pending_messages() == 4096
        net.step_round()
        assert net.pending_messages() == 0

    def test_halted_and_departed_recipients_get_no_inbox(self):
        net = self.split_vote_network(halted=(5, 40))
        net.remove_process(50, at_round=2)
        step_processes = SynchronousNetwork._step_processes
        handed = {}

        def spy(network, round_index, round_metrics, inboxes):
            handed[round_index] = inboxes
            return step_processes(network, round_index, round_metrics, inboxes)

        with mock.patch.object(SynchronousNetwork, "_step_processes", spy):
            net.step_round()
            net.step_round()
        assert sorted(handed[2]) == [i for i in self.IDS if i not in (5, 40, 50)]
        assert len({id(inbox) for inbox in handed[2].values()}) == 2
