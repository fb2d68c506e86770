"""The SQLite-backed run store.

Stdlib ``sqlite3`` in WAL mode — one writer, any number of concurrent
readers, no dependency beyond the standard library.  See the package
docstring (:mod:`repro.store`) for the schema and the run-key contract.

Blobs (protocol outputs, decision values, per-node counters, trace
object columns) are loaded lazily: :meth:`RunStore.get_run` reads only
the scalar columns, and the :class:`StoredRun` it returns fetches
metrics, outputs and trace segments on first access.  A persisted trace
comes back as a :class:`repro.sim.events.Trace` of sealed segments
(:meth:`Trace.from_segments`): its footers, plus a loader that reads one
segment's columns on demand, so ``of_kind``/``in_round``/``decisions``
touch only the segments that can contain matching events.
"""

from __future__ import annotations

import json
import sqlite3
import sys
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from typing import Any, Sequence

from ..analysis.stats import aggregate_rows
from ..api.spec import ScenarioSpec
from ..sim.events import EventKind, Trace
from ..sim.metrics import DecisionRecord, RunMetrics
from .serialize import canonical_dumps, pickle_loads

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_ROW_FN",
    "StoreError",
    "RunRecord",
    "StoredRun",
    "TraceSegmentSink",
    "RunStore",
]

#: Bumped on any backwards-incompatible schema change; stores created by
#: a different version refuse to open instead of misreading rows.
SCHEMA_VERSION = 2

#: Row-function label used when a caller persists a row without naming one.
DEFAULT_ROW_FN = "default"

_TRACE_BLOB_NAMES = ("kinds", "rounds", "nodes", "peers", "payloads", "details")


class StoreError(RuntimeError):
    """A run store could not be opened, validated or read."""


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

    def trace(self) -> Trace:
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

    def load(self, index: int) -> Trace:
        """Read sealed segment ``index`` back, for the spilling trace's
        queries."""

        return self._store._load_segment(self.run_key, index)


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

    def get_trace(self, run_key: str) -> Trace | None:
        """The persisted trace for a stored run (``None`` if no such run).

        A stored but untraced run yields an empty :class:`Trace` (zero
        segments), not ``None``.
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
        Segments are compared pair-wise with a cheap exit — byte-identical
        blobs skip without decoding — so diffing two identical traced runs
        never materialises an event.
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
        a, b = self._load_trace(run_key_a), self._load_trace(run_key_b)
        if not (a.segment_count or b.segment_count):
            return {}
        divergence: dict[str, Any] | None = None
        for index in range(max(a.segment_count, b.segment_count)):
            # Past its last segment, the shorter trace reads as empty.
            blobs_a, blobs_b = (
                self._load_segment_blobs(key, index)
                if index < trace.segment_count
                else None
                for key, trace in ((run_key_a, a), (run_key_b, b))
            )
            if blobs_a == blobs_b:
                continue
            seg_a, seg_b = (
                Trace() if blobs is None else Trace.from_segment(blobs)
                for blobs in (blobs_a, blobs_b)
            )
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
        counts_a, counts_b = a.kind_counts(), b.kind_counts()
        kind_deltas = {
            kind.value: [
                counts_a.get(kind.value, 0),
                counts_b.get(kind.value, 0),
            ]
            for kind in EventKind
            if counts_a.get(kind.value, 0) != counts_b.get(kind.value, 0)
        }
        if divergence is None and not kind_deltas and len(a) == len(b):
            return {}
        return {
            "events": [len(a), len(b)],
            "kind_counts": kind_deltas,
            "first_divergence": divergence,
        }

    # -- blob plumbing (used by StoredRun and stored traces) ---------------

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

    def _load_segment(self, run_key: str, index: int) -> Trace:
        return Trace.from_segment(self._load_segment_blobs(run_key, index))

    def _load_trace(self, run_key: str) -> Trace:
        footers = [
            json.loads(footer_json)
            for (footer_json,) in self._conn.execute(
                "SELECT footer_json FROM trace_segments WHERE run_key = ? "
                "ORDER BY segment_index",
                (run_key,),
            )
        ]
        return Trace.from_segments(footers, partial(self._load_segment, run_key))
