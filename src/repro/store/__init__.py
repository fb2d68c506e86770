"""Persistent run store: content-addressed results DB and resumable sweeps.

This package persists simulation runs so sweeps resume instead of
re-executing, results are queryable after the fact, and a service can
stream progress to clients — all on stdlib ``sqlite3`` (WAL mode, no
dependencies).

The run-key contract
--------------------
A run is addressed by **content**, never by position in a sweep::

    run_key = sha256(spec_digest ‖ "\\n" ‖ code_version)

* ``spec_digest`` — :meth:`repro.api.ScenarioSpec.digest`: the SHA-256 of
  the spec's canonical JSON (sorted keys, compact separators, ASCII).
  Two specs with equal ``to_dict()`` output always share a digest,
  regardless of process, dict insertion order or platform.
* ``code_version`` — :func:`repro.store.digest.code_fingerprint`: a
  SHA-256 over every ``*.py`` file in the installed ``repro`` package
  (sorted relative paths + contents), overridable via the
  ``REPRO_CODE_VERSION`` environment variable.  Editing the simulator
  invalidates cached cells automatically.

Identical (spec, code) always hits the cache; changing either
ingredient misses it.  :class:`ResumableSweep` relies on this to run only
missing cells and still return rows bit-identical to a fresh sweep.

The schema (version 2)
----------------------
Version 2 dropped version 1's ``engine`` column along with the kernel
option; a store written under another version refuses to open with
:class:`StoreError`.

``meta``
    ``schema_version`` and the writing machine's ``byteorder`` (raw
    ``array`` blobs are native-endian; a store refuses to open on a
    machine with the other endianness).
``runs``
    One row per run key: denormalised query columns (``protocol``, ``n``,
    ``f``, ``seed``, ``code_version``, ``status``), the spec
    and summary as canonical JSON, scalar results (``rounds_executed``,
    ``stop_reason``, ``peak_payload_bytes``, ``elapsed_seconds``,
    ``created_at``) and three lazy pickle blobs: protocol outputs,
    decision triples and per-node counters.
``round_columns``
    The :class:`~repro.sim.metrics.RunMetrics` per-round counters, one
    raw ``array('q')`` blob per column name (the PR-5 columnar layout,
    persisted as-is).
``rows``
    Extracted report rows keyed by ``(run_key, row_fn)`` — the row
    function's qualified name — as canonical JSON, so different row
    extractors never collide on one run.
``trace_segments``
    Optional columnar trace slices: per segment a JSON footer (event
    count, per-kind counts, round range) plus the six column blobs.
    :class:`StoredTrace` answers ``of_kind``/``in_round``/``decisions``
    by consulting footers first and loading only segments that can
    match; ``kind_counts``/``len`` never touch a blob, and
    :meth:`StoredTrace.aggregate` reduces per-round/per-node/per-kind
    counts and payload-byte tallies one segment at a time without
    materialising events.

The spill-segment contract
--------------------------
Trace segments reach ``trace_segments`` by one of two exclusive routes:

* **post-run export** — ``Trace.export_segments`` slices the finished
  in-memory trace and :meth:`RunStore.put_run` writes the slices with
  the rest of the record (deleting any stale segments for the key
  first); or
* **in-run spill** — :meth:`RunStore.trace_sink` hands out a
  :class:`~repro.store.db.TraceSegmentSink` (clearing stale segments up
  front); ``Trace(spill_to=sink, segment_events=N)`` then seals and
  writes each exactly-``N``-event segment the moment the live columns
  fill, each in its own committed transaction.  Peak trace memory is
  bounded by one segment, WAL readers only ever observe fully committed
  sealed segments, and the record persisted afterwards must carry
  ``trace_spilled=True`` so ``put_run`` leaves the streamed segments in
  place.

Both routes produce byte-identical segments for the same run and
granularity (spill seals exactly the slices export would have cut), so
every consumer — :class:`StoredTrace` queries, ``aggregate``, trace
diffs, the streaming endpoint — is agnostic to how the trace arrived;
``tests/test_trace_analytics.py`` pins the equivalence.

Entry points
------------
:class:`RunStore` (open/query/diff/pivot, ``get_trace``/``trace_sink``),
:class:`ResumableSweep` (store-first sweep execution),
``python -m repro.store.serve`` (HTTP service with NDJSON progress and
trace streaming).
"""

from .db import (
    DEFAULT_ROW_FN,
    RunRecord,
    RunStore,
    SCHEMA_VERSION,
    StoredRun,
    StoredTrace,
    StoreError,
    TraceSegmentSink,
)
from .digest import code_fingerprint, run_key, spec_digest, sweep_digest
from .resumable import (
    DEFAULT_SEGMENT_EVENTS,
    ResumableSweep,
    SweepReport,
    record_from_outcome,
    row_fn_name,
)
from .serialize import canonical_dumps, json_normalize, to_jsonable

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_ROW_FN",
    "DEFAULT_SEGMENT_EVENTS",
    "StoreError",
    "RunStore",
    "RunRecord",
    "StoredRun",
    "StoredTrace",
    "TraceSegmentSink",
    "ResumableSweep",
    "SweepReport",
    "record_from_outcome",
    "row_fn_name",
    "run_key",
    "spec_digest",
    "sweep_digest",
    "code_fingerprint",
    "canonical_dumps",
    "json_normalize",
    "to_jsonable",
]
