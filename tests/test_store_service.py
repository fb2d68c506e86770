"""Tests for the scenario service (:mod:`repro.store.service`).

Boots the stdlib threaded server on an ephemeral port, launches sweeps
through the HTTP API and reads the NDJSON progress stream end to end.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import REGISTRY, register_protocol
from repro.api import sweep as sweep_module
from repro.sim.messages import Inbox, clear_intern_table, intern_table_size
from repro.store.serve import build_parser
from repro.store.service import ScenarioService, create_server

SWEEP_REQUEST = {
    "sweep": {"protocol": "consensus", "grid": {"n": [4, 5]}, "max_rounds": 30}
}


@pytest.fixture
def server(tmp_path):
    srv = create_server(tmp_path / "runs.db", port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def get_json(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return json.load(response)


def post_json(base: str, path: str, payload: dict):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


def read_stream(base: str, path: str) -> list[dict]:
    with urllib.request.urlopen(base + path, timeout=60) as stream:
        return [json.loads(line) for line in stream]


def test_health(server):
    payload = get_json(server, "/health")
    assert payload["status"] == "ok"
    assert payload["runs"] == 0


def test_sweep_launch_stream_and_resume(server):
    launch = post_json(server, "/sweeps", SWEEP_REQUEST)
    assert launch["cells"] == 2

    events = read_stream(server, launch["stream"])
    assert events[0]["event"] == "sweep-start"
    assert events[-1] == {
        "event": "sweep-complete",
        "ran": 2,
        "skipped": 0,
        "total": 2,
    }
    cells = [e for e in events if e["event"] == "cell"]
    assert [c["index"] for c in cells] == [0, 1]
    assert all(c["cached"] is False for c in cells)
    assert all("rounds" in c["row"] for c in cells)
    # Round-by-round metric progress streams for every cell.
    rounds = [e for e in events if e["event"] == "round"]
    assert {r["index"] for r in rounds} == {0, 1}
    assert all("messages_sent" in r for r in rounds)

    # The job is queryable after completion.
    job = get_json(server, f"/sweeps/{launch['id']}")
    assert job["status"] == "complete"
    assert job["report"] == {"ran": 2, "skipped": 0, "total": 2}

    # Runs landed in the store and are queryable over HTTP.
    runs = get_json(server, "/runs?protocol=consensus")
    assert len(runs) == 2
    run = get_json(server, f"/runs/{runs[0]['run_key']}")
    assert run["summary"]["decisions"] > 0
    per_round = get_json(server, f"/runs/{runs[0]['run_key']}/rounds")
    assert len(per_round) == run["summary"]["rounds"]

    # The same sweep again: everything is served from the store, and the
    # streamed rows are identical to the freshly executed ones.
    fresh_rows = [c["row"] for c in cells]
    second = post_json(server, "/sweeps", SWEEP_REQUEST)
    events = read_stream(server, second["stream"])
    assert events[-1]["ran"] == 0 and events[-1]["skipped"] == 2
    cached_cells = [e for e in events if e["event"] == "cell"]
    assert [c["row"] for c in cached_cells] == fresh_rows
    assert all(c["cached"] is True for c in cached_cells)


def test_stream_replays_for_late_subscribers(server):
    launch = post_json(server, "/sweeps", SWEEP_REQUEST)
    first = read_stream(server, launch["stream"])
    # The sweep is long finished; a late subscriber still sees every event.
    second = read_stream(server, launch["stream"])
    assert second == first


def test_bad_requests(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get_json(server, "/runs/feedfacefeedface")
    assert excinfo.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get_json(server, "/sweeps/sweep-999")
    assert excinfo.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post_json(server, "/sweeps", {"sweep": {"grid": {"n": [4]}}})
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post_json(server, "/sweeps", {"sweep": {"protocol": "consensus", "bogus": 1}})
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get_json(server, "/nonsense")
    assert excinfo.value.code == 404


@pytest.mark.parametrize("body", [[], "x", 7])
def test_post_sweeps_with_non_object_body_is_a_bad_request(server, body):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post_json(server, "/sweeps", body)
    assert excinfo.value.code == 400
    assert "JSON object" in json.load(excinfo.value)["error"]
    assert get_json(server, "/health")["status"] == "ok"


@pytest.mark.parametrize("query", ["n=abc", "seed=1.5", "limit=x"])
def test_get_runs_with_non_integer_filter_is_a_bad_request(server, query):
    key = query.split("=")[0]
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get_json(server, f"/runs?{query}")
    assert excinfo.value.code == 400
    assert f"{key} must be an integer" in json.load(excinfo.value)["error"]
    assert get_json(server, "/health")["status"] == "ok"


def test_failed_sweep_reports_error(server):
    launch = post_json(
        server, "/sweeps", {"sweep": {"protocol": "no-such-protocol", "n": 4}}
    )
    events = read_stream(server, launch["stream"])
    assert events[-1]["event"] == "error"
    job = get_json(server, f"/sweeps/{launch['id']}")
    assert job["status"] == "failed"
    assert job["error"]


def test_sweep_that_fails_before_subscribers_attach_still_streams(server):
    # The race this pins down: the sweep thread dies before anyone opens
    # the stream.  The stream must still replay the error and terminate —
    # not hang waiting on a job that will never progress.
    launch = post_json(
        server, "/sweeps", {"sweep": {"protocol": "no-such-protocol", "n": 4}}
    )
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if get_json(server, f"/sweeps/{launch['id']}")["status"] == "failed":
            break
        time.sleep(0.01)
    else:
        pytest.fail("sweep never reached a terminal state")
    # Only now — with the job long dead — does the first subscriber attach.
    events = read_stream(server, launch["stream"])
    assert events and events[-1]["event"] == "error"


def test_thread_start_failure_does_not_strand_subscribers(tmp_path, monkeypatch):
    # Harder variant: the executor thread never starts at all (e.g. the
    # host hits its thread limit).  The job is already registered when
    # start() raises, so without a terminal event every later stream
    # subscriber would block forever.
    service = ScenarioService(tmp_path / "runs.db")

    def refuse_to_start(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse_to_start)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        service.launch_sweep(SWEEP_REQUEST)
    monkeypatch.undo()

    job = service.get_job("sweep-1")
    assert job is not None
    assert job.status == "failed"
    assert "failed to start sweep thread" in (job.error or "")
    # events() replays the error and terminates instead of blocking.
    events = list(job.events())
    assert events == [{"event": "error", "message": job.error}]


TRACED_SWEEP = {
    "sweep": {
        "protocol": "consensus",
        "grid": {"n": [4]},
        "max_rounds": 30,
        "trace": True,
    }
}


def run_traced_sweep(server) -> str:
    launch = post_json(server, "/sweeps", TRACED_SWEEP)
    events = read_stream(server, launch["stream"])
    assert events[-1]["event"] == "sweep-complete"
    runs = get_json(server, "/runs?protocol=consensus")
    assert len(runs) == 1
    return runs[0]["run_key"]


def test_trace_stream_endpoint(server):
    key = run_traced_sweep(server)
    events = read_stream(server, f"/runs/{key}/trace")
    start, complete = events[0], events[-1]
    assert start["event"] == "trace-start"
    assert start["run_key"] == key
    assert start["segments"] >= 1 and start["events"] > 0
    batches = [e for e in events if e["event"] == "segment"]
    streamed = [ev for b in batches for ev in b["events"]]
    assert len(streamed) == start["events"]
    assert complete == {"event": "trace-complete", "streamed": len(streamed)}
    assert {"kind", "round", "node", "peer", "payload", "detail"} <= set(
        streamed[0]
    )
    # Replays are identical for late subscribers.
    assert read_stream(server, f"/runs/{key}/trace") == events


def test_trace_stream_filters(server):
    key = run_traced_sweep(server)
    unfiltered = read_stream(server, f"/runs/{key}/trace")
    all_events = [
        ev
        for e in unfiltered
        if e["event"] == "segment"
        for ev in e["events"]
    ]
    by_kind = read_stream(server, f"/runs/{key}/trace?kind=message_delivered")
    delivered = [
        ev for e in by_kind if e["event"] == "segment" for ev in e["events"]
    ]
    assert delivered == [
        ev for ev in all_events if ev["kind"] == "message_delivered"
    ]
    assert by_kind[-1]["streamed"] == len(delivered)
    by_round = read_stream(server, f"/runs/{key}/trace?round=1")
    in_round = [
        ev for e in by_round if e["event"] == "segment" for ev in e["events"]
    ]
    assert in_round == [ev for ev in all_events if ev["round"] == 1]
    combined = read_stream(
        server, f"/runs/{key}/trace?kind=message_sent&round=1"
    )
    both = [
        ev for e in combined if e["event"] == "segment" for ev in e["events"]
    ]
    assert both == [
        ev
        for ev in all_events
        if ev["kind"] == "message_sent" and ev["round"] == 1
    ]


def test_trace_stream_bad_requests(server):
    key = run_traced_sweep(server)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        read_stream(server, f"/runs/{key}/trace?kind=bogus")
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        read_stream(server, f"/runs/{key}/trace?round=soon")
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        read_stream(server, "/runs/feedfacefeedface/trace")
    assert excinfo.value.code == 404


def test_trace_stream_of_untraced_run_is_empty(server):
    launch = post_json(server, "/sweeps", SWEEP_REQUEST)
    read_stream(server, launch["stream"])
    key = get_json(server, "/runs?protocol=consensus")[0]["run_key"]
    events = read_stream(server, f"/runs/{key}/trace")
    assert events[0]["segments"] == 0 and events[0]["events"] == 0
    assert events[-1] == {"event": "trace-complete", "streamed": 0}


def test_client_disconnect_mid_replay_does_not_poison_server(
    server, monkeypatch
):
    """Killing a streaming client must not surface as a handler error.

    The stdlib server calls ``handle_error`` (stack trace to stderr) for
    any exception a handler lets escape.  A client that vanishes mid-write
    is routine, not an error: the handler catches the broken pipe and the
    worker thread exits cleanly, so later requests are unaffected.
    """

    import socket
    import socketserver
    import struct
    import time
    import urllib.parse

    # A trace big enough that the server cannot fit the whole reply into
    # kernel send buffers: the stream must still be in flight when the
    # client dies.
    launch = post_json(
        server,
        "/sweeps",
        {
            "sweep": {
                "protocol": "rotor-coordinator",
                "grid": {"n": [20]},
                "trace": True,
            }
        },
    )
    events = read_stream(server, launch["stream"])
    assert events[-1]["event"] == "sweep-complete"
    key = get_json(server, "/runs?protocol=rotor-coordinator")[0]["run_key"]

    srv_errors = []
    original = socketserver.BaseServer.handle_error

    def recording(self, request, client_address):
        srv_errors.append(client_address)
        original(self, request, client_address)

    monkeypatch.setattr(socketserver.BaseServer, "handle_error", recording)
    parsed = urllib.parse.urlsplit(server)
    raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    # Shrink the receive window (before connecting, so it sticks) so the
    # server blocks mid-stream instead of buffering the whole reply.
    raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    raw.settimeout(10)
    raw.connect((parsed.hostname, parsed.port))
    raw.sendall(f"GET /runs/{key}/trace HTTP/1.0\r\n\r\n".encode("ascii"))
    assert raw.recv(256)  # the stream is live
    # Hard-close (RST) while the server is still writing.
    raw.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    raw.close()

    # The server stays healthy and the disconnect never reaches
    # handle_error; give the dying worker thread a moment to finish.
    for _ in range(5):
        assert get_json(server, "/health")["status"] == "ok"
        time.sleep(0.05)
    assert srv_errors == []


def test_serve_cli_parser_defaults():
    args = build_parser().parse_args(["--store", "x.db", "--port", "0"])
    assert (args.store, args.host, args.port) == ("x.db", "127.0.0.1", 0)
    assert args.jobs == 1 and not hasattr(args, "engine")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--store", "x.db", "--engine", "vector"])


@pytest.mark.parametrize("jobs", [0, -3, 2.5, True, "2", None])
def test_post_sweeps_rejects_jobs_that_are_not_positive_integers(server, jobs):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post_json(server, "/sweeps", dict(SWEEP_REQUEST, jobs=jobs))
    assert excinfo.value.code == 400
    assert "jobs must be an integer of at least 1" in json.load(excinfo.value)["error"]
    # Rejected at launch: no job was ever registered.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get_json(server, "/sweeps/sweep-1")
    assert excinfo.value.code == 404


def test_post_sweeps_runs_with_the_requested_jobs(server):
    launch = post_json(server, "/sweeps", dict(SWEEP_REQUEST, jobs=1))
    events = read_stream(server, launch["stream"])
    assert events[0] == {"event": "sweep-start", "id": launch["id"], "cells": 2, "jobs": 1}
    assert events[-1]["event"] == "sweep-complete"


@pytest.mark.parametrize(
    "sweep,field",
    [
        ({"protocol": "consensus", "n": 4.5, "f": 1}, "n"),
        ({"protocol": "consensus", "grid": {"n": [4.9]}}, "n"),
        ({"protocol": "consensus", "n": 4, "trace": "no"}, "trace"),
        ({"protocol": "consensus", "n": 4, "repetitions": 2.0}, "repetitions"),
    ],
)
def test_post_sweeps_rejects_numbers_and_flags_it_would_coerce(server, sweep, field):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post_json(server, "/sweeps", {"sweep": sweep})
    assert excinfo.value.code == 400
    assert json.load(excinfo.value)["error"].startswith(f"{field} must be")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get_json(server, "/sweeps/sweep-1")
    assert excinfo.value.code == 404


@pytest.mark.parametrize("field", ["engine", "enginee", "base"])
def test_post_sweeps_rejects_unknown_top_level_fields(server, field):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post_json(server, "/sweeps", dict(SWEEP_REQUEST, **{field: "vector"}))
    assert excinfo.value.code == 400
    assert json.load(excinfo.value)["error"] == f"unknown request fields: {field}"


@pytest.mark.parametrize("query", ["engine=vector", "protocl=consensus"])
def test_get_runs_with_unknown_filter_is_a_bad_request(server, query):
    name = query.split("=")[0]
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get_json(server, f"/runs?{query}")
    assert excinfo.value.code == 400
    assert json.load(excinfo.value)["error"] == f"unknown run filters: {name}"


def test_module_docstring_example_request_is_accepted(server):
    import repro.store.service

    doc = repro.store.service.__doc__
    start = doc.index("POST /sweeps") + len("POST /sweeps")
    body = json.loads(doc[start : doc.index("GET  /sweeps/<id>/stream")])
    assert body["jobs"] == 2
    # One worker keeps the test free of forked processes.
    launch = post_json(server, "/sweeps", dict(body, jobs=1))
    assert launch["cells"] == 3
    events = read_stream(server, launch["stream"])
    assert events[-1] == {"event": "sweep-complete", "ran": 3, "skipped": 0, "total": 3}


def live_inboxes() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Inbox))


def test_repeated_sweeps_leave_no_inboxes_or_interned_payloads_behind(tmp_path):
    """Process-wide state stays bounded across sweeps.

    One in-process service runs the same sweeps over and over, the unicast
    attacks of consensus and reliable broadcast included.  Each repeat
    asks for a larger ``max_rounds``: a new spec digest, so the store does
    not serve the runs from cache, but the same executions, since every
    run decides long before the limit.  No :class:`Inbox` may outlive its
    sweep, and after the first sweep the payload intern table may not
    grow: a grouping table, shared view or memo that outlived its round
    would show up here.
    """

    service = ScenarioService(tmp_path / "runs.db")

    def sweep(extra_rounds: int) -> None:
        job = service.launch_sweep({"sweeps": [
            {"protocol": "consensus", "n": 7, "f": 2, "repetitions": 2,
             "adversary": "consensus-split-vote", "max_rounds": 60 + extra_rounds},
            {"protocol": "reliable-broadcast", "n": 7, "f": 2,
             "adversary": "rb-equivocating-sender",
             "params": {"byzantine_sender": True}, "max_rounds": 60 + extra_rounds},
        ]})
        events = list(job.events())
        assert events[-1] == {"event": "sweep-complete", "ran": 3, "skipped": 0, "total": 3}

    before = live_inboxes()
    sweep(0)
    interned = intern_table_size()
    for extra_rounds in range(1, 6):
        sweep(extra_rounds)
        assert live_inboxes() <= before
        assert intern_table_size() <= interned


def test_repeated_total_order_sweeps_leave_no_inboxes_or_interned_payloads_behind(
    tmp_path,
):
    """The same bound for total order, whose engines intern their sender
    filters next to the known-sender views and the batches.

    A churned, random-noise total-order cell runs on every repeat through
    a fresh service and store, so it executes again: total order runs to
    its churn horizon, so a larger ``max_rounds`` would change the run
    instead of repeating it.  The table starts empty and the cell interns
    far fewer payloads than the 65,536-entry cap, so no clear can hide
    growth.
    """

    def sweep(repeat: int) -> None:
        service = ScenarioService(tmp_path / f"runs-{repeat}.db")
        job = service.launch_sweep({"sweep": {
            "protocol": "total-order", "n": 6, "f": 1, "adversary": "random-noise",
            "repetitions": 2,
            "churn": {"rounds": 20, "join_rate": 0.1, "leave_rate": 0.05},
        }})
        events = list(job.events())
        assert events[-1] == {"event": "sweep-complete", "ran": 2, "skipped": 0, "total": 2}

    clear_intern_table()
    before = live_inboxes()
    sweep(0)
    interned = intern_table_size()
    assert 0 < interned < 4096
    for repeat in range(1, 4):
        sweep(repeat)
        assert live_inboxes() <= before
        assert intern_table_size() <= interned


@pytest.fixture
def deadline():
    """Fail the test after 60 s, as ``tests/test_worker_pool.py`` does, so
    a hung pool fails it instead of stalling the suite."""

    if not hasattr(signal, "setitimer"):
        pytest.skip("deadlines use SIGALRM")

    def expire(signum, frame):
        raise TimeoutError("service pool test passed its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# The sweep threads fork the pools while the server's threads run; Python
# 3.12 warns about any fork in a multi-threaded process.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_broken_worker_pool_fails_only_its_own_request(server, monkeypatch, deadline):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # The registration below is undone when the test ends.
    monkeypatch.setattr(REGISTRY, "_protocols", dict(REGISTRY._protocols))
    parent = os.getpid()
    consensus = REGISTRY.info("consensus").builder

    def dies_in_workers(spec):
        if os.getpid() != parent:
            os._exit(1)
        return consensus(spec)

    register_protocol("dies-in-workers")(dies_in_workers)
    broken = post_json(server, "/sweeps", {
        "sweep": {"protocol": "dies-in-workers", "grid": {"n": [4, 5]}, "max_rounds": 30},
        "jobs": 2,
    })
    events = read_stream(server, broken["stream"])
    assert events[-1]["event"] == "error"
    assert "process pool" in events[-1]["message"]  # BrokenProcessPool
    assert get_json(server, f"/sweeps/{broken['id']}")["status"] == "failed"
    broken_pool = sweep_module._POOL
    assert broken_pool is not None

    healthy = post_json(server, "/sweeps", dict(SWEEP_REQUEST, jobs=2))
    events = read_stream(server, healthy["stream"])
    assert events[-1] == {"event": "sweep-complete", "ran": 2, "skipped": 0, "total": 2}
    assert get_json(server, f"/sweeps/{healthy['id']}")["status"] == "complete"
    assert sweep_module._POOL not in (None, broken_pool)
