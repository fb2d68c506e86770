"""Trace analytics: columnar aggregation, spill mode, stored-trace queries.

Differential guarantees, mirroring the golden-trace pattern:

* a trace of sealed segments (``Trace.from_segments``) answers
  ``aggregate`` and every other query like the in-memory trace it was
  exported from, over the full golden-trace scenario grid — persisted
  answers are bit-identical to in-memory answers;
* a run traced with in-run spill (``Trace(spill_to=...)``) produces
  byte-identical segments, event streams and aggregates to the same run
  traced in memory and exported post-hoc, and answers every query over
  the whole run while it is still spilling;
* footer pruning of sealed segments is observable
  (``loaded_segment_count``) and correct at the edges: exact round-range
  boundaries, empty traces, kinds with zero footer counts;
* concurrent store readers during an active spill-writing run see only
  complete sealed segments (WAL single-writer discipline).
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from make_trace_golden import GRID, make_spec, scenario_key  # noqa: E402

from repro.analysis.tables import attach_trace_columns, trace_table  # noqa: E402
from repro.api.registry import REGISTRY  # noqa: E402
from repro.api.sweep import resolve_stop, run_scenario  # noqa: E402
from repro.sim.events import EventKind, Trace, TraceEvent  # noqa: E402
from repro.store import RunStore, record_from_outcome  # noqa: E402

SEGMENT_EVENTS = 64  # small, so every scenario spans multiple segments

AGG_CASES = [
    dict(kinds=None, by="round", reduce="count"),
    dict(kinds=None, by="node", reduce="count"),
    dict(kinds=None, by="kind", reduce="count"),
    dict(kinds=None, by="round", reduce=("count", "payload_bytes")),
    dict(kinds=EventKind.MESSAGE_DELIVERED, by="round", reduce="payload_bytes"),
    dict(
        kinds=(EventKind.MESSAGE_SENT, EventKind.MESSAGE_DELIVERED),
        by="node",
        reduce=("count", "payload_bytes"),
    ),
    dict(kinds=EventKind.NODE_DECIDED, by="kind", reduce="count"),
]


def stored_view(trace: Trace, *, max_events: int = SEGMENT_EVENTS) -> Trace:
    """A sealed-segment trace over an in-memory export (no database needed)."""

    segments = trace.export_segments(max_events=max_events)
    return Trace.from_segments(
        [footer for footer, _ in segments],
        lambda index: Trace.from_segment(segments[index][1]),
    )


class ListSink:
    """An in-memory spill sink with the RunStore.trace_sink interface."""

    def __init__(self) -> None:
        self.segments: list[tuple[dict, dict[str, bytes]]] = []

    def write(self, index: int, footer: dict, blobs: dict[str, bytes]) -> None:
        assert index == len(self.segments), "segments must arrive in order"
        self.segments.append((footer, blobs))

    def load(self, index: int) -> Trace:
        return Trace.from_segment(self.segments[index][1])


def run_spilled(spec, sink, *, segment_events: int = SEGMENT_EVENTS):
    """Mirror ``run_scenario`` with in-run trace spill enabled."""

    info = REGISTRY.info(spec.protocol)
    system = REGISTRY.build(spec)
    system.network.enable_trace_spill(sink, segment_events=segment_events)
    max_rounds = (
        spec.max_rounds
        if spec.max_rounds is not None
        else info.default_max_rounds(spec)
    )
    return system.network.run(
        max_rounds=max_rounds, stop_when=resolve_stop(spec, info)
    )


# ---------------------------------------------------------------------------
# Aggregation: in-memory == stored, over the golden scenario grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "options", GRID, ids=[scenario_key(o) for o in GRID]
)
def test_stored_trace_matches_in_memory_on_golden_grid(options):
    trace = run_scenario(make_spec(options)).result.trace
    stored = stored_view(trace)
    assert len(stored) == len(trace)
    assert stored.kind_counts() == trace.kind_counts()
    assert list(stored) == list(trace)
    for case in AGG_CASES:
        expected = trace.aggregate(
            case["kinds"], by=case["by"], reduce=case["reduce"]
        )
        assert (
            stored.aggregate(case["kinds"], by=case["by"], reduce=case["reduce"])
            == expected
        ), case
    rounds = sorted({e.round_index for e in trace})
    probe = rounds[len(rounds) // 2]
    assert stored.select(
        kind=EventKind.MESSAGE_DELIVERED, round_index=probe
    ) == trace.select(kind=EventKind.MESSAGE_DELIVERED, round_index=probe)


@pytest.mark.parametrize(
    "options",
    GRID[:4],
    ids=[scenario_key(o) for o in GRID[:4]],
)
def test_spill_is_bit_identical_to_in_memory(options):
    spec = make_spec(options)
    reference = run_scenario(spec).result.trace
    sink = ListSink()
    result = run_spilled(spec, sink)
    spilled = result.trace
    assert spilled.live_events == 0  # the run sealed its tail
    # Byte-identical segments: spill seals exactly the slices export cuts.
    exported = reference.export_segments(max_events=SEGMENT_EVENTS)
    assert len(sink.segments) == len(exported)
    for (footer_s, blobs_s), (footer_e, blobs_e) in zip(sink.segments, exported):
        assert footer_s == footer_e
        assert blobs_s == blobs_e
    # Identical query answers.
    assert list(spilled) == list(reference)
    assert spilled.kind_counts() == reference.kind_counts()
    for case in AGG_CASES:
        assert spilled.aggregate(
            case["kinds"], by=case["by"], reduce=case["reduce"]
        ) == reference.aggregate(
            case["kinds"], by=case["by"], reduce=case["reduce"]
        ), case


def test_spill_through_run_store_round_trips(tmp_path):
    spec = make_spec(GRID[0])
    reference = run_scenario(spec).result.trace
    with RunStore(tmp_path / "runs.db") as store:
        sink = store.trace_sink("spill-key")
        result = run_spilled(spec, sink, segment_events=50)
        assert sink.segments_written == result.trace.segment_count
        # The sink's view and a fresh load agree with the in-memory trace.
        assert list(result.trace) == list(reference)
        reloaded = store._load_trace("spill-key")
        assert list(reloaded) == list(reference)
        assert reloaded.aggregate(by="kind") == reference.aggregate(by="kind")


def test_put_run_preserves_spilled_segments(tmp_path):
    spec = make_spec(GRID[0])
    with RunStore(tmp_path / "runs.db") as store:
        outcome = run_scenario(spec)
        record = record_from_outcome(outcome, code_version="test")
        sink = store.trace_sink(record.run_key)
        result = run_spilled(spec, sink)
        record.trace_segments = []
        record.trace_spilled = True
        store.put_run(record, row={"ok": True})
        stored = store.get_trace(record.run_key)
        assert stored is not None
        assert stored.segment_count == result.trace.segment_count
        assert list(stored) == list(outcome.result.trace)
        # Without the flag, put_run would have wiped the streamed segments.
        record.trace_spilled = False
        store.put_run(record, row={"ok": True})
        assert store.get_trace(record.run_key).segment_count == 0


# ---------------------------------------------------------------------------
# Spill mechanics: memory bound, guard rails
# ---------------------------------------------------------------------------


def make_event(round_index: int, kind=EventKind.MESSAGE_SENT) -> TraceEvent:
    return TraceEvent(kind, round_index, node_id=round_index % 7, peer_id=1)


def test_spill_bounds_live_memory_to_one_segment():
    sink = ListSink()
    trace = Trace(spill_to=sink, segment_events=100)
    for i in range(1000):
        trace.record(make_event(i // 50))
        assert trace.live_events < 100  # sealing happens the moment it fills
    assert trace.segment_count == 10
    assert len(trace) == 1000
    assert trace.kind_counts() == {"message_sent": 1000}
    stored = trace.finalize_spill()
    assert stored.segment_count == 10
    assert len(stored) == 1000


def test_spilling_trace_answers_queries_over_the_whole_run():
    """Before finalize_spill, queries read the sealed segments back."""

    events = [
        make_event(
            i // 50,
            EventKind.NODE_DECIDED if i % 7 == 0 else EventKind.MESSAGE_SENT,
        )
        for i in range(250)
    ]
    spilling = Trace(spill_to=ListSink(), segment_events=100)
    for event in events:
        spilling.record(event)
    in_memory = Trace(events)
    assert (spilling.segment_count, spilling.live_events) == (2, 50)
    assert list(spilling) == list(in_memory) == events
    assert spilling.in_round(0) == in_memory.in_round(0)
    assert spilling.aggregate(by="round") == in_memory.aggregate(by="round")
    assert [row["round"] for row in spilling.aggregate(by="round")] == [
        0, 1, 2, 3, 4,
    ]
    for filters in (
        dict(kind=EventKind.NODE_DECIDED),
        dict(kind=EventKind.MESSAGE_SENT, round_index=4),
        dict(round_index=1, node_id=1),
    ):
        selected = spilling.select(**filters)
        assert selected and selected == in_memory.select(**filters)


def test_spill_finalize_seals_partial_tail():
    sink = ListSink()
    trace = Trace(spill_to=sink, segment_events=100)
    for i in range(250):
        trace.record(make_event(i))
    stored = trace.finalize_spill()
    assert stored.segment_count == 3
    assert [f["events"] for f in stored._footers] == [100, 100, 50]
    assert [e.round_index for e in stored] == list(range(250))


def test_spilling_trace_refuses_export_and_requires_fresh_network():
    trace = Trace(spill_to=ListSink(), segment_events=10)
    trace.record(make_event(0))
    with pytest.raises(ValueError, match="finalize_spill"):
        trace.export_segments()
    with pytest.raises(ValueError, match="already persisted"):
        stored_view(boundary_trace(), max_events=10).export_segments()
    with pytest.raises(ValueError, match="no spill sink"):
        Trace().finalize_spill()
    with pytest.raises(ValueError, match="segment_events"):
        Trace(spill_to=ListSink(), segment_events=0)


def test_enable_trace_spill_guards():
    from repro.api import ScenarioSpec
    from repro.sim.network import ConfigurationError

    spec = ScenarioSpec(protocol="consensus", n=4, f=1, seed=3, max_rounds=5)
    system = REGISTRY.build(spec)  # untraced
    with pytest.raises(ConfigurationError, match="requires tracing"):
        system.network.enable_trace_spill(ListSink())
    traced = REGISTRY.build(
        ScenarioSpec(
            protocol="consensus", n=4, f=1, seed=3, max_rounds=5, trace=True
        )
    )
    traced.network.run(max_rounds=2, stop_when=lambda network: False)
    with pytest.raises(ConfigurationError, match="before the run starts"):
        traced.network.enable_trace_spill(ListSink())


# ---------------------------------------------------------------------------
# StoredTrace footer-pruning edge cases (regressions)
# ---------------------------------------------------------------------------


def boundary_trace() -> Trace:
    # Rounds 0..9, five events each; segments of 10 split exactly on
    # round boundaries: segment k covers rounds [2k, 2k+1].
    return Trace(
        [make_event(i // 5) for i in range(50)]
    )


def test_in_round_at_exact_segment_boundary():
    stored = stored_view(boundary_trace(), max_events=10)
    assert stored.segment_count == 5
    # Round 1 is segment 0's round_max; round 2 is segment 1's round_min.
    for probe, segment_loads in ((1, 1), (2, 1)):
        view = stored_view(boundary_trace(), max_events=10)
        events = view.in_round(probe)
        assert [e.round_index for e in events] == [probe] * 5
        assert view.loaded_segment_count == segment_loads
    # A round no segment covers loads nothing.
    view = stored_view(boundary_trace(), max_events=10)
    assert view.in_round(99) == []
    assert view.loaded_segment_count == 0


def test_first_on_empty_stored_trace():
    empty = stored_view(Trace())
    assert empty.segment_count == 0
    assert len(empty) == 0
    assert empty.first(EventKind.NODE_DECIDED) is None
    assert empty.of_kind(EventKind.MESSAGE_SENT) == []
    assert empty.in_round(0) == []
    assert empty.kind_counts() == {}
    assert empty.aggregate(by="round") == []
    assert list(empty.select_batches()) == []


def test_of_kind_with_zero_footer_count_loads_nothing():
    stored = stored_view(boundary_trace(), max_events=10)
    assert stored.of_kind(EventKind.NODE_DECIDED) == []
    assert stored.loaded_segment_count == 0
    assert stored.first(EventKind.NODE_DECIDED) is None
    assert stored.loaded_segment_count == 0
    # Aggregating a kind no footer mentions is also free.
    assert stored.aggregate(EventKind.NODE_DECIDED, by="round") == []
    assert stored.loaded_segment_count == 0


def test_kind_count_only_aggregate_is_pure_footer_arithmetic():
    stored = stored_view(boundary_trace(), max_events=10)
    assert stored.aggregate(by="kind", reduce="count") == [
        {"kind": "message_sent", "count": 50}
    ]
    assert stored.loaded_segment_count == 0


def test_aggregate_argument_validation():
    trace = boundary_trace()
    with pytest.raises(ValueError, match="by must be one of"):
        trace.aggregate(by="color")
    with pytest.raises(ValueError, match="reduce must draw from"):
        trace.aggregate(reduce="median")
    with pytest.raises(ValueError, match="at least one reducer"):
        trace.aggregate(reduce=())
    stored = stored_view(trace)
    with pytest.raises(ValueError, match="by must be one of"):
        stored.aggregate(by="color")


# ---------------------------------------------------------------------------
# Concurrent readers during an active spill (WAL discipline)
# ---------------------------------------------------------------------------


def test_concurrent_reader_sees_only_sealed_segments(tmp_path):
    path = tmp_path / "runs.db"
    with RunStore(path) as writer:
        sink = writer.trace_sink("live-run")
        trace = Trace(spill_to=sink, segment_events=10)
        with RunStore(path) as reader:
            for sealed in range(5):
                for i in range(10):
                    trace.record(make_event(sealed))
                view = reader._load_trace("live-run")
                # Exactly the sealed segments, each complete.
                assert view.segment_count == sealed + 1
                assert len(view) == (sealed + 1) * 10
                assert [e.round_index for e in view] == [
                    r for r in range(sealed + 1) for _ in range(10)
                ]


def test_reader_thread_never_observes_torn_segments(tmp_path):
    path = tmp_path / "runs.db"
    stop = threading.Event()
    failures: list[str] = []

    def read_loop() -> None:
        with RunStore(path) as reader:
            while not stop.is_set():
                view = reader._load_trace("live-run")
                for index, footer in enumerate(view._footers):
                    segment = view._segment(index)
                    if len(segment) != footer["events"]:
                        failures.append(
                            f"segment {index}: {len(segment)} events, "
                            f"footer says {footer['events']}"
                        )
                        return

    with RunStore(path) as writer:
        sink = writer.trace_sink("live-run")
        trace = Trace(spill_to=sink, segment_events=25)
        thread = threading.Thread(target=read_loop)
        thread.start()
        try:
            for i in range(2000):
                trace.record(make_event(i % 13))
            stored = trace.finalize_spill()
        finally:
            stop.set()
            thread.join(timeout=30)
    assert not failures, failures
    assert stored.segment_count == 80


# ---------------------------------------------------------------------------
# analysis.tables integration
# ---------------------------------------------------------------------------


def test_attach_trace_columns_joins_per_round_rows():
    outcome = run_scenario(make_spec(GRID[4]))
    trace = outcome.result.trace
    rows = [r.as_dict() for r in outcome.result.metrics.rounds]
    joined = attach_trace_columns(
        rows, trace, kinds=EventKind.MESSAGE_DELIVERED
    )
    assert rows[0].get("trace_count") is None  # inputs not mutated
    for row in joined:
        # Per-round delivered counts from the trace must agree with the
        # metrics column computed independently by the engine.
        assert row["trace_count"] == row["messages_delivered"]
    # The stored view joins identically.
    stored_join = attach_trace_columns(
        rows, stored_view(trace), kinds=EventKind.MESSAGE_DELIVERED
    )
    assert stored_join == joined


def test_attach_trace_columns_zero_fills_and_passthrough():
    trace = boundary_trace()  # rounds 0..9
    rows = [{"round": 9}, {"round": 42}, {"note": "no round key"}]
    joined = attach_trace_columns(rows, trace)
    assert joined[0]["trace_count"] == 5
    assert joined[1]["trace_count"] == 0
    assert joined[2] == {"note": "no round key"}


def test_trace_table_renders_for_both_backends():
    trace = run_scenario(make_spec(GRID[0])).result.trace
    text = trace_table(trace, by="kind", title="events by kind")
    assert "events by kind" in text and "message_delivered" in text
    assert trace_table(stored_view(trace), by="kind", title="events by kind") == text
