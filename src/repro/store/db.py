"""The SQLite-backed run store.

Stdlib ``sqlite3`` in WAL mode — one writer, any number of concurrent
readers, no dependency beyond the standard library.  See the package
docstring (:mod:`repro.store`) for the schema and the run-key contract.

Blobs (protocol outputs, decision values, per-node counters, trace
object columns) are loaded lazily: :meth:`RunStore.get_run` reads only
the scalar columns, and the :class:`StoredRun` it returns fetches
metrics, outputs and trace segments on first access.  Persisted trace
segments are queried through :class:`StoredTrace`, which implements the
:class:`repro.sim.events.Trace` query API on top of the segment footers
so ``of_kind``/``in_round``/``decisions`` touch only the segments that
can contain matching events.
"""

from __future__ import annotations

import json
import sqlite3
import sys
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Iterator, Sequence

from ..analysis.stats import aggregate_rows
from ..api.spec import ScenarioSpec
from ..sim.events import (
    EventKind,
    Trace,
    TraceEvent,
    check_aggregate_args,
    format_aggregate_rows,
)
from ..sim.metrics import DecisionRecord, RunMetrics
from .serialize import canonical_dumps, pickle_loads

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_ROW_FN",
    "StoreError",
    "RunRecord",
    "StoredRun",
    "StoredTrace",
    "TraceSegmentSink",
    "RunStore",
]

#: Bumped on any backwards-incompatible schema change; stores created by
#: a different version refuse to open instead of misreading rows.
SCHEMA_VERSION = 2

#: Row-function label used when a caller persists a row without naming one.
DEFAULT_ROW_FN = "default"

_TRACE_BLOB_NAMES = ("kinds", "rounds", "nodes", "peers", "payloads", "details")

#: Kind value <-> column code mapping (enum member order, matching
#: ``repro.sim.events``); used to translate footer ``kind_counts`` keys
#: (kind *values*) into the codes the aggregation plumbing groups by.
_KIND_CODE_BY_VALUE = {kind.value: code for code, kind in enumerate(EventKind)}


class StoreError(RuntimeError):
    """A run store could not be opened, validated or read."""


def _sum_kind_counts(footers: Sequence[dict]) -> dict[str, int]:
    """Total per-kind event counts across a run's segment footers."""

    counts: dict[str, int] = {}
    for footer in footers:
        for value, count in footer["kind_counts"].items():
            counts[value] = counts.get(value, 0) + count
    return counts


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    """One finished run, fully serialised and picklable.

    Built in worker processes by
    :func:`repro.store.resumable.record_from_outcome` and shipped back to
    the single-writer parent, which persists it with
    :meth:`RunStore.put_run`.  Blob fields may be ``None`` for
    lightweight records (e.g. benchmark cells that only cache a row).
    """

    run_key: str
    spec_dict: dict
    spec_digest: str
    code_version: str
    status: str = "complete"
    summary: dict = field(default_factory=dict)
    rounds_executed: int = 0
    stop_reason: str = ""
    peak_payload_bytes: int = 0
    elapsed_seconds: float | None = None
    outputs_blob: bytes | None = None
    decisions_blob: bytes | None = None
    per_node_blob: bytes | None = None
    round_columns: dict[str, bytes] = field(default_factory=dict)
    trace_segments: list[tuple[dict, dict[str, bytes]]] = field(default_factory=list)
    #: True when the run's trace segments were already streamed into the
    #: store by an in-run spill sink (:meth:`RunStore.trace_sink`);
    #: :meth:`RunStore.put_run` then leaves the ``trace_segments`` table
    #: alone instead of deleting what the spill just wrote.
    trace_spilled: bool = False

    def per_round(self) -> list[dict]:
        """Per-round metric dicts decoded from the column blobs."""

        if not self.round_columns:
            return []
        metrics = RunMetrics.from_columns(self.round_columns)
        return [r.as_dict() for r in metrics.rounds]


class StoredTrace:
    """Lazy, segment-backed implementation of the ``Trace`` query API.

    Holds the (cheap, always-loaded) segment footers plus a loader that
    materialises one segment's blobs into a :class:`Trace` on demand.
    Queries consult the footers first: ``of_kind`` skips segments whose
    footer shows a zero count for the kind, ``in_round`` skips segments
    whose round range excludes the round, and ``kind_counts``/``len``
    never load a blob at all.  The query helpers cache the segments they
    load; ``select``/``select_batches`` stream them instead.
    """

    def __init__(
        self, footers: Sequence[dict], loader: Callable[[int], Trace]
    ) -> None:
        self._footers = list(footers)
        self._loader = loader
        self._segments: dict[int, Trace] = {}

    # -- segment plumbing --------------------------------------------------

    @property
    def segment_count(self) -> int:
        return len(self._footers)

    @property
    def loaded_segment_count(self) -> int:
        """How many segments have been materialised (laziness observable)."""

        return len(self._segments)

    def _segment(self, index: int) -> Trace:
        segment = self._segments.get(index)
        if segment is None:
            segment = self._segments[index] = self._loader(index)
        return segment

    def _uncached(self, index: int) -> Trace:
        """Segment ``index``: the cached copy if a query loaded it, else a
        fresh load that is not kept."""

        segment = self._segments.get(index)
        return self._loader(index) if segment is None else segment

    def _select(self, wanted: Callable[[dict], bool]) -> Iterator[Trace]:
        for index, footer in enumerate(self._footers):
            if wanted(footer):
                yield self._segment(index)

    # -- Trace query API ---------------------------------------------------

    def __len__(self) -> int:
        return sum(f["events"] for f in self._footers)

    def __iter__(self) -> Iterator[TraceEvent]:
        for index in range(len(self._footers)):
            yield from self._segment(index)

    @property
    def events(self) -> list[TraceEvent]:
        return list(self)

    def kind_counts(self) -> dict[str, int]:
        """Aggregated per-kind counts — pure footer arithmetic, no blob I/O."""

        counts: dict[str, int] = {}
        for footer in self._footers:
            for kind_value, count in footer["kind_counts"].items():
                counts[kind_value] = counts.get(kind_value, 0) + count
        # Stable kind order (enum member order), matching Trace.kind_counts.
        return {k.value: counts[k.value] for k in EventKind if k.value in counts}

    def of_kind(self, kind: EventKind) -> list[TraceEvent]:
        events: list[TraceEvent] = []
        for segment in self._select(
            lambda f: f["kind_counts"].get(kind.value, 0) > 0
        ):
            events.extend(segment.of_kind(kind))
        return events

    def in_round(self, round_index: int) -> list[TraceEvent]:
        events: list[TraceEvent] = []
        for segment in self._select(
            lambda f: f["round_min"] <= round_index <= f["round_max"]
        ):
            events.extend(segment.in_round(round_index))
        return events

    def for_node(self, node_id) -> list[TraceEvent]:
        events: list[TraceEvent] = []
        for index in range(len(self._footers)):
            events.extend(self._segment(index).for_node(node_id))
        return events

    def where(self, predicate: Callable[[TraceEvent], bool]) -> list[TraceEvent]:
        return [e for e in self if predicate(e)]

    def decisions(self) -> list[TraceEvent]:
        return self.of_kind(EventKind.NODE_DECIDED)

    def first(self, kind: EventKind) -> TraceEvent | None:
        for segment in self._select(
            lambda f: f["kind_counts"].get(kind.value, 0) > 0
        ):
            found = segment.first(kind)
            if found is not None:
                return found
        return None

    # -- columnar analytics ------------------------------------------------

    def aggregate(
        self,
        kinds=None,
        *,
        by: str = "round",
        reduce="count",
    ) -> list[dict]:
        """Group-and-reduce over the persisted segments, footer-pruned.

        Same signature and bit-identical rows as
        :meth:`repro.sim.events.Trace.aggregate` — group by ``"round"``,
        ``"node"`` or ``"kind"``, reduce to ``"count"`` and/or
        ``"payload_bytes"`` — but computed segment by segment on the raw
        columns, so no :class:`TraceEvent` is ever allocated and at most
        one segment's blobs are decoded at a time.  Footer pruning
        applies twice over: a ``by="kind"`` count-only aggregate is pure
        footer arithmetic (zero blob I/O), and a ``kinds`` filter skips
        every segment whose footer shows no matching events.
        """

        codes, reducers = check_aggregate_args(kinds, by, reduce)
        groups: dict = {}
        if by == "kind" and set(reducers) == {"count"}:
            for footer in self._footers:
                for value, count in footer["kind_counts"].items():
                    code = _KIND_CODE_BY_VALUE[value]
                    if codes is not None and code not in codes:
                        continue
                    tally = groups.get(code)
                    if tally is None:
                        tally = groups[code] = [0] * len(reducers)
                    for slot in range(len(reducers)):
                        tally[slot] += count
            return format_aggregate_rows(groups, by, reducers)
        if codes is None:
            relevant = range(len(self._footers))
        else:
            values = [
                value
                for value, code in _KIND_CODE_BY_VALUE.items()
                if code in codes
            ]
            relevant = [
                index
                for index, footer in enumerate(self._footers)
                if any(footer["kind_counts"].get(v, 0) for v in values)
            ]
        for index in relevant:
            self._segment(index).accumulate_aggregate(groups, codes, by, reducers)
        return format_aggregate_rows(groups, by, reducers)

    def select(
        self,
        *,
        kind: EventKind | None = None,
        round_index: int | None = None,
        node_id=None,
    ) -> list[TraceEvent]:
        """Events matching every given filter (conjunction), footer-pruned."""

        events: list[TraceEvent] = []
        for _, batch in self.select_batches(
            kind=kind, round_index=round_index, node_id=node_id
        ):
            events.extend(batch)
        return events

    def select_batches(
        self,
        *,
        kind: EventKind | None = None,
        round_index: int | None = None,
        node_id=None,
    ) -> Iterator[tuple[int, list[TraceEvent]]]:
        """Yield ``(segment_index, matching events)`` one segment at a time.

        The streaming primitive behind the service's ``/runs/<key>/trace``
        endpoint: segments whose footers cannot match are skipped without
        blob I/O, and each yielded batch is independent.  Segments are
        loaded without being cached (one a query helper already cached is
        reused), and the loaded segment is released before its batch is
        yielded, so a stream holds no segment while its consumer works and
        at most one while the next batch is selected, plus the batches the
        consumer keeps.
        """

        for index, footer in enumerate(self._footers):
            if (
                kind is not None
                and footer["kind_counts"].get(kind.value, 0) == 0
            ):
                continue
            if round_index is not None and not (
                footer["round_min"] <= round_index <= footer["round_max"]
            ):
                continue
            yield index, self._uncached(index).select(
                kind=kind, round_index=round_index, node_id=node_id
            )


@dataclass
class StoredRun:
    """One persisted run: scalar columns eager, blobs lazy."""

    run_key: str
    spec_digest: str
    code_version: str
    status: str
    summary: dict
    rounds_executed: int
    stop_reason: str
    peak_payload_bytes: int
    elapsed_seconds: float | None
    created_at: str
    _spec_json: str
    _store: "RunStore"

    @property
    def spec(self) -> ScenarioSpec:
        return ScenarioSpec.from_dict(json.loads(self._spec_json))

    def metrics(self) -> RunMetrics:
        """Rebuild the run's :class:`RunMetrics` from the stored columns."""

        columns = self._store._load_round_columns(self.run_key)
        per_node = self._store._load_blob(self.run_key, "per_node_blob")
        sent, delivered = pickle_loads(per_node) if per_node else ({}, {})
        decisions_blob = self._store._load_blob(self.run_key, "decisions_blob")
        decisions = pickle_loads(decisions_blob) if decisions_blob else []
        return RunMetrics.from_columns(
            columns,
            per_node_sent=sent,
            per_node_delivered=delivered,
            decisions=decisions,
            peak_payload_bytes=self.peak_payload_bytes,
        )

    def per_round(self) -> list[dict]:
        columns = self._store._load_round_columns(self.run_key)
        return RunRecord(
            run_key=self.run_key,
            spec_dict={},
            spec_digest=self.spec_digest,
            code_version=self.code_version,
            round_columns=columns,
        ).per_round()

    def outputs(self) -> dict | None:
        """The correct nodes' outputs, or ``None`` if never persisted."""

        blob = self._store._load_blob(self.run_key, "outputs_blob")
        return pickle_loads(blob) if blob else None

    def decisions(self) -> list[DecisionRecord]:
        blob = self._store._load_blob(self.run_key, "decisions_blob")
        if not blob:
            return []
        return [DecisionRecord(*triple) for triple in pickle_loads(blob)]

    def trace(self) -> StoredTrace:
        """The persisted trace, queryable lazily segment by segment."""

        return self._store._load_trace(self.run_key)

    def row(self, row_fn: str = DEFAULT_ROW_FN) -> dict | None:
        return self._store.get_row(self.run_key, row_fn)

    def as_dict(self) -> dict:
        """JSON-safe scalar view (what the service endpoints return)."""

        return {
            "run_key": self.run_key,
            "spec": json.loads(self._spec_json),
            "spec_digest": self.spec_digest,
            "code_version": self.code_version,
            "status": self.status,
            "summary": self.summary,
            "rounds_executed": self.rounds_executed,
            "stop_reason": self.stop_reason,
            "peak_payload_bytes": self.peak_payload_bytes,
            "elapsed_seconds": self.elapsed_seconds,
            "created_at": self.created_at,
        }


class TraceSegmentSink:
    """Write-through spill target for one run's trace segments.

    Handed to ``Trace(spill_to=sink)`` (usually via
    :meth:`SynchronousNetwork.enable_trace_spill`); each sealed segment
    is written in its own committed transaction, so under WAL concurrent
    readers observe complete sealed segments only — never a torn one.
    Create through :meth:`RunStore.trace_sink`, which clears any stale
    segments for the key first.
    """

    def __init__(self, store: "RunStore", run_key: str) -> None:
        self._store = store
        self.run_key = run_key
        self.segments_written = 0

    def write(self, index: int, footer: dict, blobs: dict[str, bytes]) -> None:
        conn = self._store._conn
        with conn:
            conn.execute(
                "INSERT OR REPLACE INTO trace_segments (run_key, "
                "segment_index, footer_json, kinds, rounds, nodes, peers, "
                "payloads, details) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    self.run_key,
                    index,
                    canonical_dumps(footer),
                    *(blobs[name] for name in _TRACE_BLOB_NAMES),
                ),
            )
        self.segments_written += 1

    def stored_trace(self) -> StoredTrace:
        """The fully queryable view over everything written so far."""

        return self._store._load_trace(self.run_key)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_key TEXT PRIMARY KEY,
    spec_digest TEXT NOT NULL,
    protocol TEXT NOT NULL,
    n INTEGER NOT NULL,
    f INTEGER NOT NULL,
    seed INTEGER NOT NULL,
    code_version TEXT NOT NULL,
    status TEXT NOT NULL,
    spec_json TEXT NOT NULL,
    summary_json TEXT NOT NULL,
    rounds_executed INTEGER NOT NULL,
    stop_reason TEXT NOT NULL,
    peak_payload_bytes INTEGER NOT NULL,
    elapsed_seconds REAL,
    created_at TEXT NOT NULL,
    outputs_blob BLOB,
    decisions_blob BLOB,
    per_node_blob BLOB
);
CREATE INDEX IF NOT EXISTS runs_by_protocol ON runs (protocol, n, seed);
CREATE INDEX IF NOT EXISTS runs_by_spec ON runs (spec_digest);
CREATE TABLE IF NOT EXISTS round_columns (
    run_key TEXT NOT NULL,
    name TEXT NOT NULL,
    data BLOB NOT NULL,
    PRIMARY KEY (run_key, name)
);
CREATE TABLE IF NOT EXISTS rows (
    run_key TEXT NOT NULL,
    row_fn TEXT NOT NULL,
    row_json TEXT NOT NULL,
    PRIMARY KEY (run_key, row_fn)
);
CREATE TABLE IF NOT EXISTS trace_segments (
    run_key TEXT NOT NULL,
    segment_index INTEGER NOT NULL,
    footer_json TEXT NOT NULL,
    kinds BLOB NOT NULL,
    rounds BLOB NOT NULL,
    nodes BLOB NOT NULL,
    peers BLOB NOT NULL,
    payloads BLOB NOT NULL,
    details BLOB NOT NULL,
    PRIMARY KEY (run_key, segment_index)
);
"""

_RUN_SCALARS = (
    "run_key, spec_digest, code_version, status, summary_json, "
    "rounds_executed, stop_reason, peak_payload_bytes, elapsed_seconds, "
    "created_at, spec_json"
)


class RunStore:
    """Content-addressed persistence for simulation runs (SQLite, WAL).

    One connection per instance; open one instance per thread or process
    (WAL mode gives concurrent readers alongside a single writer).  The
    constructor validates the file: a path that is not an SQLite database,
    a truncated/corrupt database, a schema-version mismatch or a
    byte-order mismatch all raise :class:`StoreError` instead of
    returning garbage rows.
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        self._conn: sqlite3.Connection | None = None
        try:
            self._conn = sqlite3.connect(self.path)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            has_tables = self._conn.execute(
                "SELECT COUNT(*) FROM sqlite_master WHERE type='table'"
            ).fetchone()[0]
            if has_tables:
                verdicts = [
                    row[0] for row in self._conn.execute("PRAGMA quick_check")
                ]
                if verdicts != ["ok"]:
                    raise StoreError(
                        f"run store {self.path} failed integrity check: "
                        f"{'; '.join(verdicts[:3])}"
                    )
            self._conn.executescript(_SCHEMA)
            self._check_meta()
        except sqlite3.DatabaseError as exc:
            self.close()
            raise StoreError(
                f"{self.path} is not a usable run store: {exc}"
            ) from exc
        except StoreError:
            self.close()
            raise

    def _check_meta(self) -> None:
        meta = dict(self._conn.execute("SELECT key, value FROM meta"))
        if not meta:
            self._conn.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [
                    ("schema_version", str(SCHEMA_VERSION)),
                    ("byteorder", sys.byteorder),
                ],
            )
            self._conn.commit()
            return
        version = int(meta.get("schema_version", "0"))
        if version != SCHEMA_VERSION:
            raise StoreError(
                f"run store {self.path} has schema version {version}; "
                f"this code expects {SCHEMA_VERSION}"
            )
        byteorder = meta.get("byteorder")
        if byteorder != sys.byteorder:
            raise StoreError(
                f"run store {self.path} was written on a {byteorder}-endian "
                f"machine; this machine is {sys.byteorder}-endian"
            )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writing -----------------------------------------------------------

    def put_run(
        self,
        record: RunRecord,
        *,
        row: dict | None = None,
        row_fn: str = DEFAULT_ROW_FN,
    ) -> None:
        """Persist one run atomically (replacing any prior row for its key)."""

        spec = record.spec_dict
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO runs (run_key, spec_digest, protocol, "
                "n, f, seed, code_version, status, spec_json, "
                "summary_json, rounds_executed, stop_reason, "
                "peak_payload_bytes, elapsed_seconds, created_at, "
                "outputs_blob, decisions_blob, per_node_blob) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.run_key,
                    record.spec_digest,
                    str(spec.get("protocol", "")),
                    int(spec.get("n", 0)),
                    int(spec.get("f", 0)),
                    int(spec.get("seed", 0)),
                    record.code_version,
                    record.status,
                    canonical_dumps(spec),
                    canonical_dumps(record.summary),
                    record.rounds_executed,
                    record.stop_reason,
                    record.peak_payload_bytes,
                    record.elapsed_seconds,
                    datetime.now(timezone.utc).isoformat(),
                    record.outputs_blob,
                    record.decisions_blob,
                    record.per_node_blob,
                ),
            )
            self._conn.execute(
                "DELETE FROM round_columns WHERE run_key = ?", (record.run_key,)
            )
            self._conn.executemany(
                "INSERT INTO round_columns (run_key, name, data) VALUES (?, ?, ?)",
                [
                    (record.run_key, name, data)
                    for name, data in record.round_columns.items()
                ],
            )
            if not record.trace_spilled:
                # A spilled run's segments were already streamed into
                # trace_segments by the sink; rewriting would drop them.
                self._conn.execute(
                    "DELETE FROM trace_segments WHERE run_key = ?",
                    (record.run_key,),
                )
                self._conn.executemany(
                    "INSERT INTO trace_segments (run_key, segment_index, "
                    "footer_json, kinds, rounds, nodes, peers, payloads, "
                    "details) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    [
                        (
                            record.run_key,
                            index,
                            canonical_dumps(footer),
                            *(blobs[name] for name in _TRACE_BLOB_NAMES),
                        )
                        for index, (footer, blobs) in enumerate(
                            record.trace_segments
                        )
                    ],
                )
            if row is not None:
                self._conn.execute(
                    "INSERT OR REPLACE INTO rows (run_key, row_fn, row_json) "
                    "VALUES (?, ?, ?)",
                    (record.run_key, row_fn, canonical_dumps(row)),
                )

    def trace_sink(self, run_key: str) -> TraceSegmentSink:
        """A spill sink for ``run_key``, clearing any stale segments first.

        Pass the result to ``Trace(spill_to=...)`` or
        ``SynchronousNetwork.enable_trace_spill``; persist the run's
        :class:`RunRecord` afterwards with ``trace_spilled=True`` so
        :meth:`put_run` leaves the streamed segments in place.
        """

        with self._conn:
            self._conn.execute(
                "DELETE FROM trace_segments WHERE run_key = ?", (run_key,)
            )
        return TraceSegmentSink(self, run_key)

    def put_row(self, run_key: str, row_fn: str, row: dict) -> None:
        """Attach an additional extracted row to an existing run."""

        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO rows (run_key, row_fn, row_json) "
                "VALUES (?, ?, ?)",
                (run_key, row_fn, canonical_dumps(row)),
            )

    # -- reading -----------------------------------------------------------

    def has_run(self, run_key: str) -> bool:
        found = self._conn.execute(
            "SELECT 1 FROM runs WHERE run_key = ? AND status = 'complete'",
            (run_key,),
        ).fetchone()
        return found is not None

    def get_run(self, run_key: str) -> StoredRun | None:
        row = self._conn.execute(
            f"SELECT {_RUN_SCALARS} FROM runs WHERE run_key = ?", (run_key,)
        ).fetchone()
        return self._stored_run(row) if row else None

    def _stored_run(self, row: tuple) -> StoredRun:
        (
            run_key,
            spec_digest,
            code_version,
            status,
            summary_json,
            rounds_executed,
            stop_reason,
            peak_payload_bytes,
            elapsed_seconds,
            created_at,
            spec_json,
        ) = row
        return StoredRun(
            run_key=run_key,
            spec_digest=spec_digest,
            code_version=code_version,
            status=status,
            summary=json.loads(summary_json),
            rounds_executed=rounds_executed,
            stop_reason=stop_reason,
            peak_payload_bytes=peak_payload_bytes,
            elapsed_seconds=elapsed_seconds,
            created_at=created_at,
            _spec_json=spec_json,
            _store=self,
        )

    def get_trace(self, run_key: str) -> StoredTrace | None:
        """The persisted trace for a stored run (``None`` if no such run).

        A stored but untraced run yields an empty :class:`StoredTrace`
        (zero segments), not ``None``.
        """

        if self.get_run(run_key) is None:
            return None
        return self._load_trace(run_key)

    def get_row(self, run_key: str, row_fn: str = DEFAULT_ROW_FN) -> dict | None:
        """The extracted row for a *complete* run, or ``None`` on a miss."""

        found = self._conn.execute(
            "SELECT rows.row_json FROM rows JOIN runs USING (run_key) "
            "WHERE rows.run_key = ? AND rows.row_fn = ? "
            "AND runs.status = 'complete'",
            (run_key, row_fn),
        ).fetchone()
        return json.loads(found[0]) if found else None

    def query(
        self,
        *,
        protocol: str | None = None,
        n: int | None = None,
        seed: int | None = None,
        spec_digest: str | None = None,
        status: str | None = "complete",
        limit: int | None = None,
    ) -> list[StoredRun]:
        """Stored runs matching the filters, in insertion order."""

        clauses, params = [], []
        for column, value in (
            ("protocol", protocol),
            ("n", n),
            ("seed", seed),
            ("spec_digest", spec_digest),
            ("status", status),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = f"SELECT {_RUN_SCALARS} FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY rowid"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        return [self._stored_run(row) for row in self._conn.execute(sql, params)]

    def rows(
        self,
        *,
        row_fn: str = DEFAULT_ROW_FN,
        protocol: str | None = None,
    ) -> list[dict]:
        """All stored rows for ``row_fn`` (optionally one protocol), in order."""

        sql = (
            "SELECT rows.row_json FROM rows JOIN runs USING (run_key) "
            "WHERE rows.row_fn = ? AND runs.status = 'complete'"
        )
        params: list = [row_fn]
        if protocol is not None:
            sql += " AND runs.protocol = ?"
            params.append(protocol)
        sql += " ORDER BY rows.rowid"
        return [json.loads(r[0]) for r in self._conn.execute(sql, params)]

    def pivot(
        self,
        group_by: Sequence[str],
        metrics: Sequence[str],
        *,
        row_fn: str = DEFAULT_ROW_FN,
        protocol: str | None = None,
    ) -> list[dict]:
        """Aggregate stored rows into a pivot table.

        Routes through :func:`repro.analysis.stats.aggregate_rows`, so the
        result feeds :mod:`repro.analysis.tables` renderers directly —
        experiment tables regenerate from the store without re-running
        anything.
        """

        return aggregate_rows(
            self.rows(row_fn=row_fn, protocol=protocol),
            group_by=list(group_by),
            metrics=list(metrics),
        )

    def diff(self, run_key_a: str, run_key_b: str) -> dict[str, Any]:
        """Cross-run diff: spec fields, summary metrics, per-round columns
        and the persisted traces.

        ``per_round`` maps each differing column to the first index at
        which the two runs diverge (length mismatches count from the end
        of the shorter column); a column only one run stored maps to the
        string ``"missing"`` instead of an index — a run persisted
        without per-round metrics (e.g. a lightweight benchmark cell)
        diffs cleanly rather than raising.

        ``trace`` is ``{}`` when the stored traces are identical (or both
        runs are untraced); otherwise it reports total event counts,
        per-kind count deltas (differing kinds only) and the first
        divergent event as ``{"segment", "index", "kind", "round"}``.
        Segments are compared pair-wise with cheap exits — matching
        footers plus byte-identical blobs skip without decoding — so
        diffing two identical traced runs never materialises an event.
        """

        a, b = self.get_run(run_key_a), self.get_run(run_key_b)
        if a is None or b is None:
            missing = run_key_a if a is None else run_key_b
            raise StoreError(f"run {missing} is not in the store")
        spec_a, spec_b = a.spec.to_dict(), b.spec.to_dict()
        cols_a = self._decode_round_columns(run_key_a)
        cols_b = self._decode_round_columns(run_key_b)
        per_round: dict[str, int | str] = {}
        for name in sorted(set(cols_a) | set(cols_b)):
            if name not in cols_a or name not in cols_b:
                per_round[name] = "missing"
                continue
            xa, xb = cols_a[name], cols_b[name]
            if xa == xb:
                continue
            shared = min(len(xa), len(xb))
            divergence = next(
                (i for i in range(shared) if xa[i] != xb[i]), shared
            )
            per_round[name] = divergence
        return {
            "spec": {
                k: [spec_a[k], spec_b[k]]
                for k in spec_a
                if spec_a[k] != spec_b[k]
            },
            "summary": {
                k: [a.summary.get(k), b.summary.get(k)]
                for k in sorted(set(a.summary) | set(b.summary))
                if a.summary.get(k) != b.summary.get(k)
            },
            "per_round": per_round,
            "trace": self._diff_trace(run_key_a, run_key_b),
        }

    def _diff_trace(self, run_key_a: str, run_key_b: str) -> dict[str, Any]:
        footers_a = self._load_trace_footers(run_key_a)
        footers_b = self._load_trace_footers(run_key_b)
        if not footers_a and not footers_b:
            return {}
        counts_a = _sum_kind_counts(footers_a)
        counts_b = _sum_kind_counts(footers_b)
        events_a = sum(f["events"] for f in footers_a)
        events_b = sum(f["events"] for f in footers_b)
        divergence: dict[str, Any] | None = None
        shared = min(len(footers_a), len(footers_b))
        for index in range(shared):
            blobs_a = self._load_segment_blobs(run_key_a, index)
            blobs_b = self._load_segment_blobs(run_key_b, index)
            if footers_a[index] == footers_b[index] and blobs_a == blobs_b:
                continue
            seg_a = Trace.from_segment(blobs_a)
            seg_b = Trace.from_segment(blobs_b)
            at = seg_a.first_difference(seg_b)
            if at is None:
                continue  # blobs differ byte-wise but decode identically
            ea = seg_a.event(at) if at < len(seg_a) else None
            eb = seg_b.event(at) if at < len(seg_b) else None
            divergence = {
                "segment": index,
                "index": at,
                "kind": [
                    ea.kind.value if ea else None,
                    eb.kind.value if eb else None,
                ],
                "round": [
                    ea.round_index if ea else None,
                    eb.round_index if eb else None,
                ],
            }
            break
        if divergence is None and len(footers_a) != len(footers_b):
            # Shared segments identical; the longer trace diverges at the
            # first event of its first extra segment.
            longer_key = run_key_a if len(footers_a) > shared else run_key_b
            extra = Trace.from_segment(
                self._load_segment_blobs(longer_key, shared)
            )
            event = extra.event(0)
            a_side = longer_key == run_key_a
            divergence = {
                "segment": shared,
                "index": 0,
                "kind": [
                    event.kind.value if a_side else None,
                    None if a_side else event.kind.value,
                ],
                "round": [
                    event.round_index if a_side else None,
                    None if a_side else event.round_index,
                ],
            }
        kind_deltas = {
            kind.value: [
                counts_a.get(kind.value, 0),
                counts_b.get(kind.value, 0),
            ]
            for kind in EventKind
            if counts_a.get(kind.value, 0) != counts_b.get(kind.value, 0)
        }
        if divergence is None and not kind_deltas and events_a == events_b:
            return {}
        return {
            "events": [events_a, events_b],
            "kind_counts": kind_deltas,
            "first_divergence": divergence,
        }

    # -- blob plumbing (used by StoredRun/StoredTrace) ---------------------

    def _load_blob(self, run_key: str, column: str) -> bytes | None:
        found = self._conn.execute(
            f"SELECT {column} FROM runs WHERE run_key = ?", (run_key,)
        ).fetchone()
        return found[0] if found else None

    def _load_round_columns(self, run_key: str) -> dict[str, bytes]:
        return {
            name: data
            for name, data in self._conn.execute(
                "SELECT name, data FROM round_columns WHERE run_key = ?",
                (run_key,),
            )
        }

    def _decode_round_columns(self, run_key: str) -> dict[str, list[int]]:
        decoded = {}
        for name, data in self._load_round_columns(run_key).items():
            column = array("q")
            column.frombytes(data)
            decoded[name] = column.tolist()
        return decoded

    def _load_trace_footers(self, run_key: str) -> list[dict]:
        return [
            json.loads(footer_json)
            for (footer_json,) in self._conn.execute(
                "SELECT footer_json FROM trace_segments WHERE run_key = ? "
                "ORDER BY segment_index",
                (run_key,),
            )
        ]

    def _load_segment_blobs(self, run_key: str, index: int) -> dict[str, bytes]:
        found = self._conn.execute(
            f"SELECT {', '.join(_TRACE_BLOB_NAMES)} FROM trace_segments "
            "WHERE run_key = ? AND segment_index = ?",
            (run_key, index),
        ).fetchone()
        if found is None:  # pragma: no cover - segments deleted mid-read
            raise StoreError(
                f"trace segment {index} of run {run_key} disappeared"
            )
        return dict(zip(_TRACE_BLOB_NAMES, found))

    def _load_trace(self, run_key: str) -> StoredTrace:
        footers = self._load_trace_footers(run_key)

        def load(index: int) -> Trace:
            return Trace.from_segment(self._load_segment_blobs(run_key, index))

        return StoredTrace(footers, load)
