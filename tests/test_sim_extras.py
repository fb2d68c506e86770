"""Additional coverage for the simulator's delay models, metrics, trace and errors."""

from __future__ import annotations

import pytest

from repro.sim import (
    BoundedUnknownDelay,
    EventKind,
    FixedScheduleDelay,
    HaltedProcessError,
    InvalidOutgoingError,
    NullProcess,
    PartitionDelay,
    RoundLimitExceeded,
    SynchronousDelay,
    SynchronousNetwork,
    Trace,
    TraceEvent,
    UniformRandomDelay,
    UnknownNodeError,
    make_rng,
    split_into_groups,
)
from repro.sim.metrics import RunMetrics
from repro.sim.node import KnownSenders, Process
from repro.sim.messages import Inbox


class TestDelayModels:
    def test_synchronous_delay_is_next_round(self):
        model = SynchronousDelay()
        assert model.synchronous
        assert model.delivery_round(1, 2, 7, make_rng(0)) == 8

    def test_uniform_random_delay_bounds(self):
        model = UniformRandomDelay(max_delay=4)
        rng = make_rng(1)
        for _ in range(200):
            delay = model.delivery_round(1, 2, 10, rng) - 10
            assert 1 <= delay <= 4

    def test_uniform_random_delay_rejects_zero(self):
        with pytest.raises(ValueError):
            UniformRandomDelay(max_delay=0)

    def test_bounded_unknown_delay_cross_group(self):
        model = BoundedUnknownDelay(groups=(frozenset({1}), frozenset({2})), delta=9)
        rng = make_rng(0)
        assert model.delivery_round(1, 1, 5, rng) == 6
        assert model.delivery_round(1, 2, 5, rng) == 14

    def test_partition_delay_unknown_nodes_are_isolated_by_default(self):
        model = PartitionDelay(groups=(frozenset({1}),))
        rng = make_rng(0)
        # Two nodes outside any declared group used to share the sentinel
        # pseudo-group -1 and talk synchronously; the default "isolated"
        # policy keeps them apart (full edge-case matrix in
        # test_delay_models.py).
        assert model.delivery_round(7, 8, 3, rng) >= 1_000_000
        assert model.delivery_round(7, 7, 3, rng) == 4

    def test_fixed_schedule_delay(self):
        model = FixedScheduleDelay(table={(1, 2): 5}, default=2)
        rng = make_rng(0)
        assert model.delivery_round(1, 2, 1, rng) == 6
        assert model.delivery_round(2, 1, 1, rng) == 3

    def test_fixed_schedule_rejects_nonpositive_delay(self):
        model = FixedScheduleDelay(table={(1, 2): 0})
        with pytest.raises(ValueError):
            model.delivery_round(1, 2, 1, make_rng(0))

    def test_split_into_groups(self):
        groups = split_into_groups([5, 1, 9, 3, 7], [2, 2])
        assert groups == (frozenset({1, 3}), frozenset({5, 7}), frozenset({9}))


class TestMetrics:
    def test_summary_and_decision_rounds(self):
        metrics = RunMetrics()
        metrics.start_round(1)
        metrics.record_sends(1, fanout=3, broadcasts=1, unicasts=0)
        metrics.record_decision(2, 1, "v")
        metrics.record_decision(2, 2, "v")  # later duplicate is ignored for "first round"
        summary = metrics.summary()
        assert summary["rounds"] == 1
        assert summary["messages"] == 3
        assert summary["broadcasts"] == 1
        assert metrics.per_node_sent == {1: 3}
        assert metrics.decision_round(2) == 1
        assert metrics.decision_round(99) is None
        assert metrics.messages_per_round() == [3]

    def test_round_metrics_as_dict(self):
        metrics = RunMetrics()
        round_metrics = metrics.start_round(4)
        assert round_metrics.as_dict()["round"] == 4


class TestTrace:
    def test_queries(self):
        trace = Trace()
        trace.record(TraceEvent(EventKind.ROUND_START, 1))
        trace.record(TraceEvent(EventKind.NODE_DECIDED, 2, node_id=7, detail="x"))
        assert len(trace) == 2
        assert trace.first(EventKind.ROUND_START).round_index == 1
        assert trace.of_kind(EventKind.NODE_DECIDED)[0].node_id == 7
        assert trace.for_node(7)
        assert trace.in_round(2)
        assert trace.decisions()[0].detail == "x"
        assert trace.where(lambda e: e.round_index > 1)

    def test_disabled_trace_records_nothing(self):
        trace = Trace(enabled=False)
        trace.record(TraceEvent(EventKind.ROUND_START, 1))
        assert len(trace) == 0

    def test_disabled_trace_ignores_scalar_and_bulk_recording(self):
        trace = Trace(enabled=False)
        trace.record_event(EventKind.ROUND_START, 1)
        trace.record_sends_columnar(1, [(3, "m", (1, 2, 3)), (4, "u", (1,))])
        trace.record_deliveries_columnar(2, [(3, "m", (1, 2, 3)), (4, "u", (1,))])
        assert len(trace) == 0
        assert list(trace) == []
        assert trace.events == []

    def test_first_miss_returns_none(self):
        trace = Trace()
        trace.record_event(EventKind.ROUND_START, 1)
        assert trace.first(EventKind.NODE_DECIDED) is None

    def test_queries_on_empty_trace(self):
        trace = Trace()
        assert len(trace) == 0
        assert list(trace) == []
        assert trace.events == []
        assert trace.of_kind(EventKind.MESSAGE_SENT) == []
        assert trace.for_node(1) == []
        assert trace.in_round(1) == []
        assert trace.where(lambda e: True) == []
        assert trace.decisions() == []
        assert trace.first(EventKind.ROUND_START) is None
        assert trace.kind_counts() == {}

    def test_constructor_accepts_prebuilt_events(self):
        events = [
            TraceEvent(EventKind.ROUND_START, 1),
            TraceEvent(EventKind.MESSAGE_SENT, 1, node_id=1, peer_id=2, payload="m"),
        ]
        trace = Trace(events)
        assert list(trace) == events

    def test_constructor_seeding_ignores_the_enabled_flag(self):
        # Matching the pre-columnar dataclass: `enabled` gates recording,
        # not the events handed to the constructor.
        events = [TraceEvent(EventKind.ROUND_START, 1)]
        trace = Trace(events, enabled=False)
        assert list(trace) == events
        trace.record(TraceEvent(EventKind.ROUND_START, 2))
        assert len(trace) == 1

    def test_bulk_recording_matches_scalar_recording(self):
        bulk, scalar = Trace(), Trace()
        # A round's batches: a broadcast, an empty fan-out (no events) and
        # a unicast, recorded in batch order.
        batches = [(9, "m", (1, 2)), (8, "e", ()), (7, "u", (3,))]
        bulk.record_sends_columnar(1, batches)
        bulk.record_deliveries_columnar(2, batches)
        bulk.record_sends_columnar(2, [])  # an empty round is a no-op
        for sender, payload, dests in batches:
            for dest in dests:
                scalar.record_event(
                    EventKind.MESSAGE_SENT,
                    1,
                    node_id=sender,
                    peer_id=dest,
                    payload=payload,
                )
        for sender, payload, dests in batches:
            for dest in dests:
                scalar.record_event(
                    EventKind.MESSAGE_DELIVERED,
                    2,
                    node_id=dest,
                    peer_id=sender,
                    payload=payload,
                )
        assert list(bulk) == list(scalar)
        assert bulk.kind_counts() == {
            "message_sent": 3,
            "message_delivered": 3,
        }


class TestKnownSenders:
    def test_observe_and_freeze(self):
        known = KnownSenders()
        known.observe(Inbox.from_pairs([(1, "a"), (2, "b")]))
        assert known.count == 2 and 1 in known
        known.freeze()
        known.observe(Inbox.from_pairs([(3, "c")]))
        assert known.count == 2
        assert 3 not in known
        assert known.frozen


class TestErrors:
    def test_invalid_outgoing_is_rejected(self):
        class Bad(Process):
            def step(self, view):
                return ["not an outgoing action"]

        net = SynchronousNetwork([Bad(1)])
        with pytest.raises(InvalidOutgoingError):
            net.step_round()

    def test_error_types_carry_context(self):
        assert UnknownNodeError(7).node_id == 7
        assert HaltedProcessError(3).node_id == 3
        exc = RoundLimitExceeded(10, result="partial")
        assert exc.max_rounds == 10 and exc.result == "partial"

    def test_null_process_is_inert(self):
        proc = NullProcess(1)
        assert proc.step(None) == ()
        assert not proc.is_byzantine
        assert proc.output is None
