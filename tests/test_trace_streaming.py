"""Reference checks for trace recording, serialisation and trace streaming.

Recording a traced round, serialising report rows and streaming a stored
trace each replaced a simpler implementation.  This file keeps the
replaced code as the reference:

* ``reference_to_jsonable`` / ``reference_canonical_dumps`` are
  :func:`repro.store.serialize.to_jsonable` and ``canonical_dumps`` as
  they were before the exact-type checks, compared by a Hypothesis
  property over nested values, including the subclasses, numpy scalars,
  non-string keys and mapping proxies that skip those checks;
* ``reference_trace_event_json`` is the per-event encoder the
  ``/runs/<key>/trace`` stream used before it built each segment line
  with one ``repr`` per distinct payload object; the service test
  compares whole response bodies byte for byte.

The other two tests pin costs that do not show in any output: a traced
synchronous round with unicasts records its sends and its deliveries
with one trace call each, and streaming a stored trace keeps at most one
segment alive.
"""

from __future__ import annotations

import json
import threading
import urllib.request
import weakref
from collections import Counter
from enum import IntEnum
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec, run_scenario
from repro.sim.events import EventKind, Trace, TraceEvent
from repro.store import RunStore
from repro.store.serialize import canonical_dumps, to_jsonable
from repro.store.service import create_server

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# The replaced implementations
# ---------------------------------------------------------------------------


def reference_to_jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item") and not isinstance(value, Mapping):
        scalar = value.item()
        if isinstance(scalar, (bool, int, float, str)) or scalar is None:
            return scalar
    if isinstance(value, Mapping):
        return {str(k): reference_to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_to_jsonable(v) for v in value]
    raise TypeError(
        f"value of type {type(value).__name__} has no canonical JSON form"
    )


def reference_canonical_dumps(value: Any) -> str:
    return json.dumps(
        reference_to_jsonable(value),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )


def reference_trace_event_json(event: TraceEvent) -> dict:
    return {
        "kind": event.kind.value,
        "round": event.round_index,
        "node": event.node_id,
        "peer": event.peer_id,
        "payload": None if event.payload is None else repr(event.payload),
        "detail": None if event.detail is None else repr(event.detail),
    }


# ---------------------------------------------------------------------------
# to_jsonable / canonical_dumps against the reference
# ---------------------------------------------------------------------------


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    """A ``str`` subclass whose ``str()`` differs from its text."""

    def __str__(self) -> str:
        return "tag:" + self


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(list(Level)),
    st.text(max_size=3).map(Tag),
    st.text(max_size=3).map(np.str_),
    st.integers(min_value=-(2**62), max_value=2**62).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
)
keys = st.one_of(
    st.text(max_size=3),
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, width=16),
    st.sampled_from(list(Level)),
    st.text(max_size=2).map(Tag),
)
unsupported = st.one_of(
    st.frozensets(st.integers(0, 3), max_size=2),
    st.binary(max_size=2),
    st.complex_numbers(allow_nan=False, max_magnitude=4),
    st.complex_numbers(allow_nan=False, max_magnitude=4).map(np.complex128),
    st.builds(object),
)


def nested(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(keys, children, max_size=3),
            st.dictionaries(keys, children, max_size=3).map(MappingProxyType),
        ),
        max_leaves=12,
    )


def typed(value: Any) -> Any:
    """``value`` with every type and ``repr`` spelled out (``1 != True``)."""

    if type(value) is dict:
        return ("dict", [(typed(k), typed(v)) for k, v in value.items()])
    if type(value) is list:
        return ("list", [typed(v) for v in value])
    return (type(value), repr(value))


@SETTINGS
@given(value=nested(scalars))
def test_to_jsonable_and_canonical_dumps_match_the_reference(value):
    assert typed(to_jsonable(value)) == typed(reference_to_jsonable(value))
    assert canonical_dumps(value) == reference_canonical_dumps(value)


def raised(fn, value) -> tuple[type, str]:
    with pytest.raises(TypeError) as excinfo:
        fn(value)
    return excinfo.type, str(excinfo.value)


@SETTINGS
@given(
    value=st.one_of(
        unsupported,
        st.builds(
            lambda head, bad: [head, bad],
            nested(st.one_of(scalars, unsupported)),
            unsupported,
        ),
    )
)
def test_unsupported_values_raise_the_reference_type_error(value):
    assert raised(to_jsonable, value) == raised(reference_to_jsonable, value)
    assert raised(canonical_dumps, value) == raised(
        reference_canonical_dumps, value
    )


# ---------------------------------------------------------------------------
# The trace stream against the per-event encoder
# ---------------------------------------------------------------------------


def reference_trace_body(store_path, run_key: str, kind, round_index) -> bytes:
    """The ``/runs/<key>/trace`` body as the per-event encoder wrote it."""

    with RunStore(store_path) as store:
        trace = store.get_run(run_key).trace()
        lines = [
            {
                "event": "trace-start",
                "run_key": run_key,
                "segments": trace.segment_count,
                "events": len(trace),
            }
        ]
        streamed = 0
        for segment_index, batch in trace.select_batches(
            kind=kind, round_index=round_index
        ):
            if not batch:
                continue
            lines.append(
                {
                    "event": "segment",
                    "segment": segment_index,
                    "events": [
                        reference_trace_event_json(TraceEvent(*row)) for row in batch
                    ],
                }
            )
            streamed += len(batch)
        lines.append({"event": "trace-complete", "streamed": streamed})
    return "".join(reference_canonical_dumps(line) + "\n" for line in lines).encode(
        "ascii"
    )


def test_trace_stream_body_matches_the_per_event_encoder(tmp_path):
    store_path = tmp_path / "runs.db"
    # Small segments, so a round spans several of them.
    server = create_server(store_path, port=0, segment_events=500)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        request = urllib.request.Request(
            base + "/sweeps",
            data=json.dumps(
                {
                    "sweep": {
                        "protocol": "consensus",
                        "n": 10,
                        "adversary": "consensus-split-vote",
                        "trace": True,
                    }
                }
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            launch = json.load(response)
        with urllib.request.urlopen(base + launch["stream"], timeout=60) as stream:
            events = [json.loads(line) for line in stream]
        (cell,) = [e for e in events if e["event"] == "cell"]
        key = cell["run_key"]
        filters = [
            ("", None, None),
            ("?kind=message_delivered", EventKind.MESSAGE_DELIVERED, None),
            ("?kind=node_decided", EventKind.NODE_DECIDED, None),
            ("?round=2", None, 2),
            ("?kind=message_sent&round=5", EventKind.MESSAGE_SENT, 5),
        ]
        for query, kind, round_index in filters:
            with urllib.request.urlopen(
                f"{base}/runs/{key}/trace{query}", timeout=60
            ) as response:
                body = response.read()
            want = reference_trace_body(store_path, key, kind, round_index)
            assert body == want, query
        with RunStore(store_path) as store:
            trace = store.get_run(key).trace()
            # Non-vacuity: several segments, unicast rounds and decisions
            # with details all went through the stream.
            assert trace.segment_count > 3
            assert trace.kind_counts()["node_decided"] > 0
            assert any(e.detail is not None for e in trace.decisions())
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


# ---------------------------------------------------------------------------
# One trace call per round phase
# ---------------------------------------------------------------------------


def test_a_traced_unicast_round_records_sends_and_deliveries_in_one_call_each(
    monkeypatch,
):
    calls: Counter = Counter()

    def counting(name):
        original = getattr(Trace, name)

        def wrapper(self, round_index, batches):
            calls[name, round_index] += 1
            return original(self, round_index, batches)

        return wrapper

    for name in ("record_sends_columnar", "record_deliveries_columnar"):
        monkeypatch.setattr(Trace, name, counting(name))
    spec = ScenarioSpec(
        protocol="consensus", n=7, f=2, adversary="consensus-split-vote",
        seed=0, trace=True,
    )
    outcome = run_scenario(spec)
    rounds = {m.round_index: m for m in outcome.result.metrics.rounds}
    unicast_rounds = [r for r, metrics in rounds.items() if metrics.unicasts]
    assert len(unicast_rounds) >= 10
    trace = outcome.result.trace
    for round_index in unicast_rounds:
        assert calls["record_sends_columnar", round_index] == 1
        if round_index + 1 in rounds:  # the last round's sends stay in flight
            assert calls["record_deliveries_columnar", round_index + 1] == 1
        sent = [
            e for e in trace.in_round(round_index)
            if e.kind is EventKind.MESSAGE_SENT
        ]
        assert len(sent) == rounds[round_index].messages_sent
        assert len({e.node_id for e in sent}) > 1
    assert set(calls.values()) == {1}


# ---------------------------------------------------------------------------
# Streaming a stored trace holds one segment at a time
# ---------------------------------------------------------------------------


class WeakTrace(Trace):
    __slots__ = ("__weakref__",)


def test_streaming_a_stored_trace_keeps_at_most_one_segment_alive():
    spec = ScenarioSpec(
        protocol="reliable-broadcast", n=40, f=13, seed=1, trace=True
    )
    outcome = run_scenario(spec)
    segments = outcome.result.trace.export_segments(max_events=300)
    loads: list[weakref.ref] = []
    alive_at_load: list[int] = []

    def alive() -> int:
        return sum(ref() is not None for ref in loads)

    def loader(index: int) -> Trace:
        alive_at_load.append(alive())
        segment = WeakTrace.from_segment(segments[index][1])
        loads.append(weakref.ref(segment))
        return segment

    stored = Trace.from_segments([footer for footer, _ in segments], loader)
    alive_at_yield: list[int] = []
    streamed: list[TraceEvent] = []
    for _, batch in stored.select_batches():
        alive_at_yield.append(alive())
        streamed.extend(TraceEvent(*row) for row in batch)
    assert len(loads) == len(segments) > 3
    assert max(alive_at_load) == 0 and max(alive_at_yield) <= 1
    assert alive() == 0
    assert streamed == list(outcome.result.trace)

    # A segment a query helper cached is reused, not loaded again.
    first_round = stored.in_round(1)
    cached = stored.loaded_segment_count
    assert first_round and cached >= 1
    loads.clear()
    batches = list(stored.select_batches(round_index=1))
    assert len(loads) == 0
    streamed = [TraceEvent(*row) for _, batch in batches for row in batch]
    assert streamed == stored.select(round_index=1) == first_round
    assert stored.loaded_segment_count == cached
