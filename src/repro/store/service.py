"""The scenario service: launch sweeps over HTTP, stream progress as NDJSON.

A thin stdlib front-end over :class:`~repro.store.db.RunStore` and
:class:`~repro.store.resumable.ResumableSweep`.  The default server is a
``ThreadingHTTPServer`` — no framework, no dependency — and the streaming
endpoint emits newline-delimited JSON over an ``HTTP/1.0``-style
connection-close response, so any client that can read lines can follow a
sweep round by round::

    POST /sweeps        {"sweep": {"protocol": "consensus",
                         "grid": {"n": [4, 5, 6]}}, "jobs": 2}
    GET  /sweeps/<id>/stream      -> one JSON object per line:
        {"event": "sweep-start", "cells": 3, ...}
        {"event": "cell", "index": 0, "cached": false, "row": {...}}
        {"event": "round", "index": 0, "round": 0, "messages_sent": ...}
        ...
        {"event": "sweep-complete", "ran": 3, "skipped": 0}

Every connected stream client sees the *full* event sequence regardless of
when it attached: a :class:`SweepJob` records the events it has emitted and
replays the prefix to late joiners before handing them live events.
A sweep with ``jobs > 1`` runs on the process's one worker pool
(:func:`~repro.api.sweep.map_jobs`): concurrent sweeps with the same
``jobs`` share its workers, and sweeps with different ``jobs`` run side
by side.

The service keeps :data:`MAX_FINISHED_JOBS` finished sweeps and drops the
oldest finished one beyond that (never a running one); ``GET /sweeps/<id>``
and its stream then answer 404, while attached subscribers read on.

Query endpoints: ``GET /health``, ``GET /runs`` (filters as query params),
``GET /runs/<run_key>``, ``GET /runs/<run_key>/rounds``,
``GET /sweeps/<id>``.  ``GET /runs/<run_key>/trace?kind=&round=`` streams
the persisted trace as NDJSON — a ``trace-start`` header line, one
``segment`` batch per stored segment with matching events (footer-pruned,
so filtered queries never load irrelevant blobs), then ``trace-complete``
— the same connection-close replay semantics as the sweep stream.  SQLite
connections are per-thread (the handler pool opens read-only-use stores
on demand); the sweep executor thread is the only writer, preserving the
store's single-writer discipline.

Client disconnects mid-stream (``BrokenPipeError``/
``ConnectionResetError``) are clean unsubscribes: the handler swallows
them wherever they surface (event loop, response write or the final
flush in ``handle_one_request``) so a vanished client never dumps a
traceback through ``handle_error`` or poisons its worker thread.
Malformed requests get a 400 with an error message: a body that is not
a JSON object, an unknown top-level field or sweep field, a ``jobs`` that
is not a JSON integer of at least 1, an unknown ``GET /runs`` filter or
a non-integer ``n``/``seed``/``limit`` filter.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterator
from urllib.parse import parse_qs, urlparse

from ..api.sweep import SweepSpec
from ..sim.events import EventKind, Trace
from .db import RunStore, StoreError
from .resumable import DEFAULT_SEGMENT_EVENTS, ResumableSweep
from .serialize import canonical_dumps

__all__ = ["MAX_FINISHED_JOBS", "ScenarioService", "SweepJob", "create_server"]

#: Finished sweeps a service keeps, with their event logs, for
#: ``GET /sweeps/<id>`` and replayed streams.
MAX_FINISHED_JOBS = 32


#: One streamed event's JSON, keys in ``canonical_dumps`` (sorted) order.
_EVENT_JSON = (
    '{"detail":%s,"kind":%s,"node":%s,"payload":%s,"peer":%s,"round":%d}'
)
#: Each kind's JSON text, keyed by the kind's value (``EventKind._value_``
#: is a plain attribute; ``.value`` and hashing a member run Python code).
_KIND_JSON = {kind.value: canonical_dumps(kind.value) for kind in EventKind}


def _segment_line(segment_index: int, batch: list[tuple]) -> str:
    """The NDJSON text of one ``segment`` stream event.

    ``batch`` holds :meth:`Trace.select_batches` rows (``TraceEvent``
    field order).  Equal to ``canonical_dumps`` of ``{"event": "segment",
    "segment": i, "events": [...]}`` with one ``{"kind", "round", "node",
    "peer", "payload", "detail"}`` dict per event, payload and detail as
    their ``repr``.  A segment's events share a few payload objects (a
    broadcast's recipients all reference one), so the text is built here
    from the JSON of each distinct object, ``repr``'d once, rather than
    by walking one dict per event.
    """

    texts: dict[int, str] = {}

    def text(value: Any) -> str:
        found = texts.get(id(value))
        if found is None:
            found = texts[id(value)] = (
                "null" if value is None else canonical_dumps(repr(value))
            )
        return found

    def node(value: Any) -> str:
        return int.__repr__(value) if type(value) is int else canonical_dumps(value)

    events = ",".join(
        _EVENT_JSON % (
            text(detail),
            _KIND_JSON[kind._value_],
            node(node_id),
            text(payload),
            node(peer_id),
            round_index,
        )
        for kind, round_index, node_id, peer_id, payload, detail in batch
    )
    return f'{{"event":"segment","events":[{events}],"segment":{segment_index}}}'


def _parse_trace_filters(
    query: dict[str, list[str]]
) -> tuple[EventKind | None, int | None]:
    """Decode the ``kind``/``round`` query params, raising on bad values."""

    kind: EventKind | None = None
    round_index: int | None = None
    if query.get("kind"):
        value = query["kind"][0]
        try:
            kind = EventKind(value)
        except ValueError:
            known = ", ".join(k.value for k in EventKind)
            raise ValueError(f"unknown kind {value!r}; known: {known}")
    if query.get("round"):
        try:
            round_index = int(query["round"][0])
        except ValueError:
            raise ValueError(f"round must be an integer, not {query['round'][0]!r}")
    return kind, round_index

_SWEEP_FIELDS = frozenset(f.name for f in dataclasses.fields(SweepSpec))

#: Top-level fields a ``POST /sweeps`` body may carry.
_LAUNCH_FIELDS = frozenset({"sweep", "sweeps", "jobs"})

#: Query parameters ``GET /runs`` filters on.
_RUN_FILTERS = frozenset({"protocol", "n", "seed", "spec_digest", "status", "limit"})


def _sweep_from_dict(payload: dict) -> SweepSpec:
    """Build a SweepSpec from a JSON object of its dataclass fields."""

    if not isinstance(payload, dict):
        raise ValueError("each sweep must be a JSON object")
    unknown = sorted(set(payload) - _SWEEP_FIELDS)
    if unknown:
        raise ValueError(f"unknown sweep fields: {', '.join(unknown)}")
    if "protocol" not in payload:
        raise ValueError("sweep needs a 'protocol'")
    kwargs = dict(payload)
    if "seed_tags" in kwargs:
        kwargs["seed_tags"] = tuple(kwargs["seed_tags"])
    return SweepSpec(**kwargs)


class SweepJob:
    """One launched sweep: an append-only event log plus completion state.

    ``events()`` yields every event from the beginning, blocking until new
    ones arrive — late subscribers replay the recorded prefix first, so
    concurrent stream clients all observe the same sequence.
    """

    def __init__(
        self, job_id: str, cells: int, on_done: Callable[["SweepJob"], None]
    ) -> None:
        self.job_id = job_id
        self.cells = cells
        self.status = "running"
        self.error: str | None = None
        self.report_summary: dict | None = None
        self._events: list[dict] = []
        self._done = False
        self._on_done = on_done
        self._cond = threading.Condition()

    def _set_done(self) -> None:
        # With ``_cond`` held, so ``on_done`` runs before a subscriber sees
        # the job done.
        self._done = True
        self._on_done(self)
        self._cond.notify_all()

    # -- producer side (sweep executor thread) -----------------------------

    def emit(self, event: dict) -> None:
        with self._cond:
            self._events.append(event)
            self._cond.notify_all()

    def finish(self, *, status: str, error: str | None = None) -> None:
        with self._cond:
            self.status = status
            self.error = error
            self._set_done()

    def ensure_finished(self, *, error: str) -> None:
        """Force a terminal state if the job does not have one yet.

        A registered job that never reaches ``finish`` strands every
        stream subscriber: ``events()`` blocks forever waiting for more
        events.  This is the safety net for producer-side failures that
        bypass the normal completion path — the executor thread failing
        to start at all, or dying on something other than ``Exception``.
        Idempotent; does nothing once the job is already done.
        """

        with self._cond:
            if self._done:
                return
            self._events.append({"event": "error", "message": error})
            self.status = "failed"
            self.error = error
            self._set_done()

    # -- consumer side (stream handlers) -----------------------------------

    def events(self) -> Iterator[dict]:
        index = 0
        while True:
            with self._cond:
                while index >= len(self._events) and not self._done:
                    self._cond.wait()
                if index >= len(self._events):
                    return
                batch = self._events[index:]
                index = len(self._events)
            yield from batch

    def as_dict(self) -> dict:
        with self._cond:
            return {
                "id": self.job_id,
                "cells": self.cells,
                "status": self.status,
                "error": self.error,
                "events": len(self._events),
                "report": self.report_summary,
            }


class ScenarioService:
    """Store-backed sweep launcher shared by every HTTP handler thread."""

    def __init__(
        self,
        store_path: str,
        *,
        jobs: int = 1,
        segment_events: int = DEFAULT_SEGMENT_EVENTS,
    ) -> None:
        self.store_path = str(store_path)
        self.jobs = jobs
        self.segment_events = segment_events
        self._jobs: dict[str, SweepJob] = {}
        self._finished: deque[str] = deque()  # oldest finished first
        self._job_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        # Validate (and create) the store eagerly so a bad path fails at
        # service construction, not on the first request.
        RunStore(self.store_path).close()

    # -- per-thread read stores --------------------------------------------

    def reader(self) -> RunStore:
        store = getattr(self._local, "store", None)
        if store is None:
            store = self._local.store = RunStore(self.store_path)
        return store

    # -- sweep jobs ---------------------------------------------------------

    def get_job(self, job_id: str) -> SweepJob | None:
        with self._lock:
            return self._jobs.get(job_id)

    def _retire(self, job: SweepJob) -> None:
        """Count ``job`` as finished; drop the oldest finished jobs beyond
        :data:`MAX_FINISHED_JOBS`."""

        with self._lock:
            self._finished.append(job.job_id)
            while len(self._finished) > MAX_FINISHED_JOBS:
                del self._jobs[self._finished.popleft()]

    def launch_sweep(self, payload: dict) -> SweepJob:
        """Validate the request, start the executor thread, return the job."""

        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        unknown = sorted(set(payload) - _LAUNCH_FIELDS)
        if unknown:
            raise ValueError(f"unknown request fields: {', '.join(unknown)}")
        jobs = payload.get("jobs", self.jobs)
        # bool is an int subclass; `true` is not a worker count.
        if type(jobs) is not int or jobs < 1:
            raise ValueError(f"jobs must be an integer of at least 1, not {jobs!r}")
        raw = payload.get("sweep") or payload.get("sweeps")
        if raw is None:
            raise ValueError("request needs a 'sweep' (or 'sweeps') object")
        sweep_dicts = raw if isinstance(raw, list) else [raw]
        sweeps = [_sweep_from_dict(d) for d in sweep_dicts]
        scenarios = [spec for sweep in sweeps for spec in sweep.scenarios()]

        with self._lock:
            job = SweepJob(f"sweep-{next(self._job_ids)}", len(scenarios), self._retire)
            self._jobs[job.job_id] = job

        worker = threading.Thread(
            target=self._execute,
            args=(job, sweeps, jobs),
            name=f"scenario-service-{job.job_id}",
            daemon=True,
        )
        try:
            worker.start()
        except Exception as exc:
            # The job is already registered; without a terminal event a
            # later GET /sweeps/<id>/stream would hang forever on a job
            # that can never progress.
            job.ensure_finished(error=f"failed to start sweep thread: {exc}")
            raise
        return job

    def _execute(
        self,
        job: SweepJob,
        sweeps: list[SweepSpec],
        jobs: int,
    ) -> None:
        try:
            with RunStore(self.store_path) as store:
                runner = ResumableSweep(
                    store, jobs=jobs, segment_events=self.segment_events
                )

                def on_cell(index, spec, row, record, cached) -> None:
                    job.emit(
                        {
                            "event": "cell",
                            "index": index,
                            "run_key": record.run_key,
                            "cached": cached,
                            "row": row,
                        }
                    )
                    for metrics_row in record.per_round():
                        job.emit(
                            {"event": "round", "index": index, **metrics_row}
                        )

                job.emit(
                    {
                        "event": "sweep-start",
                        "id": job.job_id,
                        "cells": job.cells,
                        "jobs": jobs,
                    }
                )
                report = runner.run(sweeps, on_cell=on_cell)
                job.report_summary = {
                    "ran": report.ran,
                    "skipped": report.skipped,
                    "total": report.total,
                }
                job.emit({"event": "sweep-complete", **job.report_summary})
                job.finish(status="complete")
        except Exception as exc:  # noqa: BLE001 - reported to the client
            job.emit({"event": "error", "message": str(exc)})
            job.finish(status="failed", error=str(exc))
        finally:
            # Non-Exception exits (SystemExit, KeyboardInterrupt delivered
            # to the worker thread) would otherwise leave the job running
            # forever with subscribers blocked; no-op on the normal paths.
            job.ensure_finished(
                error="sweep thread exited without reporting completion"
            )

    # -- query endpoints ----------------------------------------------------

    def health(self) -> dict:
        store = self.reader()
        return {
            "status": "ok",
            "store": self.store_path,
            "runs": len(store.query(status=None)),
        }

    def list_runs(self, filters: dict[str, list[str]]) -> list[dict]:
        """Query the store; raises ``ValueError`` on an unknown or
        non-integer filter."""

        unknown = sorted(set(filters) - _RUN_FILTERS)
        if unknown:
            raise ValueError(f"unknown run filters: {', '.join(unknown)}")

        def first(key: str) -> str | None:
            values = filters.get(key)
            return values[0] if values else None

        def as_int(key: str) -> int | None:
            value = first(key)
            if value is None:
                return None
            try:
                return int(value)
            except ValueError:
                raise ValueError(f"{key} must be an integer, not {value!r}")

        runs = self.reader().query(
            protocol=first("protocol"),
            n=as_int("n"),
            seed=as_int("seed"),
            spec_digest=first("spec_digest"),
            status=first("status") or "complete",
            limit=as_int("limit"),
        )
        return [run.as_dict() for run in runs]

    def get_run(self, run_key: str) -> dict | None:
        run = self.reader().get_run(run_key)
        return run.as_dict() if run else None

    def get_rounds(self, run_key: str) -> list[dict] | None:
        run = self.reader().get_run(run_key)
        return run.per_round() if run else None

    def get_trace(self, run_key: str) -> Trace | None:
        run = self.reader().get_run(run_key)
        return run.trace() if run else None


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the shared :class:`ScenarioService`."""

    # HTTP/1.0 keeps the streaming endpoint framing-free: the response body
    # ends when the connection closes, so NDJSON needs no chunked encoding.
    protocol_version = "HTTP/1.0"
    service: ScenarioService  # set by create_server on the subclass

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # keep test/CI output clean

    def handle(self) -> None:
        """Treat mid-write client disconnects as clean unsubscribes.

        ``_stream_events``/``_stream_trace`` already swallow disconnects
        inside their write loops, but the trailing ``wfile.flush()`` in
        ``handle_one_request`` (and any non-streaming response write) can
        still raise after the client vanishes; without this guard the
        exception escapes to ``socketserver``'s ``handle_error`` and dumps
        a traceback from the worker thread.
        """

        try:
            super().handle()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    # -- response helpers ---------------------------------------------------

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = (canonical_dumps(payload) + "\n").encode("ascii")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _stream_events(self, job: SweepJob) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        try:
            for event in job.events():
                self.wfile.write((canonical_dumps(event) + "\n").encode("ascii"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; the job keeps running

    def _stream_trace(
        self,
        run_key: str,
        trace: Trace,
        kind: EventKind | None,
        round_index: int | None,
    ) -> None:
        """NDJSON the stored trace, one batch per segment with matches."""

        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()

        def write(line: str) -> None:
            self.wfile.write((line + "\n").encode("ascii"))
            self.wfile.flush()

        try:
            write(
                canonical_dumps(
                    {
                        "event": "trace-start",
                        "run_key": run_key,
                        "segments": trace.segment_count,
                        "events": len(trace),
                    }
                )
            )
            streamed = 0
            for segment_index, batch in trace.select_batches(
                kind=kind, round_index=round_index
            ):
                if not batch:
                    continue
                write(_segment_line(segment_index, batch))
                streamed += len(batch)
            write(canonical_dumps({"event": "trace-complete", "streamed": streamed}))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-replay; nothing to clean up

    # -- routing ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["health"]:
                self._send_json(self.service.health())
            elif parts == ["runs"]:
                try:
                    runs = self.service.list_runs(parse_qs(url.query))
                except ValueError as exc:
                    self._send_error(400, str(exc))
                    return
                self._send_json(runs)
            elif len(parts) == 2 and parts[0] == "runs":
                run = self.service.get_run(parts[1])
                if run is None:
                    self._send_error(404, f"no run {parts[1]}")
                else:
                    self._send_json(run)
            elif len(parts) == 3 and parts[0] == "runs" and parts[2] == "rounds":
                rounds = self.service.get_rounds(parts[1])
                if rounds is None:
                    self._send_error(404, f"no run {parts[1]}")
                else:
                    self._send_json(rounds)
            elif len(parts) == 3 and parts[0] == "runs" and parts[2] == "trace":
                try:
                    kind, round_index = _parse_trace_filters(parse_qs(url.query))
                except ValueError as exc:
                    self._send_error(400, str(exc))
                    return
                trace = self.service.get_trace(parts[1])
                if trace is None:
                    self._send_error(404, f"no run {parts[1]}")
                else:
                    self._stream_trace(parts[1], trace, kind, round_index)
            elif len(parts) == 2 and parts[0] == "sweeps":
                job = self.service.get_job(parts[1])
                if job is None:
                    self._send_error(404, f"no sweep {parts[1]}")
                else:
                    self._send_json(job.as_dict())
            elif len(parts) == 3 and parts[0] == "sweeps" and parts[2] == "stream":
                job = self.service.get_job(parts[1])
                if job is None:
                    self._send_error(404, f"no sweep {parts[1]}")
                else:
                    self._stream_events(job)
            else:
                self._send_error(404, f"unknown path {url.path}")
        except StoreError as exc:
            self._send_error(500, str(exc))

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts != ["sweeps"]:
            self._send_error(404, f"unknown path {url.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"{}")
            job = self.service.launch_sweep(payload)
        except (ValueError, KeyError, TypeError) as exc:
            self._send_error(400, str(exc))
            return
        except RuntimeError as exc:
            # launch_sweep re-raises thread-start failures after marking
            # the job failed; that is a server-side condition, not a bad
            # request, and must not dump through handle_error.
            self._send_error(500, str(exc))
            return
        self._send_json(
            {
                "id": job.job_id,
                "cells": job.cells,
                "stream": f"/sweeps/{job.job_id}/stream",
            },
            status=202,
        )


def create_server(
    store_path: str,
    *,
    host: str = "127.0.0.1",
    port: int = 8642,
    jobs: int = 1,
    segment_events: int = DEFAULT_SEGMENT_EVENTS,
) -> ThreadingHTTPServer:
    """Build a ready-to-``serve_forever`` threaded HTTP server.

    ``port=0`` binds an ephemeral port (handy for tests); the bound
    address is available as ``server.server_address``.
    """

    service = ScenarioService(store_path, jobs=jobs, segment_events=segment_events)
    handler = type("_BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    return server

