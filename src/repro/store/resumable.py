"""Resumable sweeps: run only the cells the store does not already hold.

:class:`ResumableSweep` wraps the :class:`repro.api.SweepRunner`
execution model with a cache lookup per scenario: each expanded spec maps
to a content-addressed run key (spec digest + code fingerprint),
cells whose key already holds a complete run and a row for the requested
row function are served from the store, and only the missing cells
execute — across worker processes exactly like a plain sweep.  The
multi-process story stays single-writer: workers *return* fully
serialised :class:`~repro.store.db.RunRecord` values and the parent
process performs every store write.

Bit-identity is by construction, not by luck: fresh rows are pushed
through the same canonical-JSON round-trip the store persists
(:func:`repro.store.serialize.json_normalize`), so a sweep returns
byte-identical rows whether a cell was executed or loaded — asserted by
``tests/test_store.py`` across protocols including churned total-order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..api.spec import ScenarioSpec
from ..api.sweep import (
    RowFn,
    ScenarioOutcome,
    SweepSpec,
    _default_row,
    map_jobs,
    run_scenario,
)
from ..analysis.stats import aggregate_rows
from ..sim.events import DEFAULT_SEGMENT_EVENTS
from .db import RunRecord, RunStore, StoreError
from .digest import code_fingerprint, run_key
from .serialize import json_normalize, pickle_dumps

__all__ = [
    "DEFAULT_SEGMENT_EVENTS",
    "SweepReport",
    "ResumableSweep",
    "record_from_outcome",
    "row_fn_name",
]

#: Rich progress callback: ``(index, spec, row, record, cached)`` — the
#: record is a RunRecord for fresh cells and a StoredRun for cache hits;
#: both expose ``per_round()`` for round-by-round metric streaming.
CellCallback = Callable[[int, ScenarioSpec, dict, object, bool], None]


def row_fn_name(fn: RowFn | None) -> str:
    """The stable label a row function's cached rows are stored under."""

    fn = fn or _default_row
    return f"{fn.__module__}.{fn.__qualname__}"


def record_from_outcome(
    outcome: ScenarioOutcome,
    *,
    code_version: str | None = None,
    segment_events: int = DEFAULT_SEGMENT_EVENTS,
    elapsed_seconds: float | None = None,
) -> RunRecord:
    """Serialise one executed scenario into a picklable store record.

    Captures the summary, per-round metric columns, per-node counters,
    decisions, the correct nodes' outputs and — for traced runs — the
    columnar trace sliced into footer-indexed segments.  The summary
    additionally discloses which tally implementation produced the run
    (``tally_backend``: ``"numpy"`` for synchronous runs, ``"scalar"`` for
    delayed ones) — the numbers are bit-identical either way, but stored
    runs should say how they were computed.
    """

    spec = outcome.spec
    metrics = outcome.result.metrics
    version = code_version if code_version is not None else code_fingerprint()
    summary = json_normalize(metrics.summary())
    summary["tally_backend"] = outcome.network.tally_backend()
    return RunRecord(
        run_key=run_key(spec, code_version=version),
        spec_dict=spec.to_dict(),
        spec_digest=spec.digest(),
        code_version=version,
        status="complete",
        summary=summary,
        rounds_executed=outcome.result.rounds_executed,
        stop_reason=outcome.result.stop_reason,
        peak_payload_bytes=metrics.peak_payload_bytes,
        elapsed_seconds=elapsed_seconds,
        outputs_blob=pickle_dumps(outcome.outputs()),
        decisions_blob=pickle_dumps(
            [(d.node_id, d.round_index, d.value) for d in metrics.decisions]
        ),
        per_node_blob=pickle_dumps(
            (dict(metrics.per_node_sent), dict(metrics.per_node_delivered))
        ),
        round_columns=metrics.export_columns(),
        trace_segments=(
            outcome.result.trace.export_segments(max_events=segment_events)
            if spec.trace
            else []
        ),
    )


def _run_case_record(payload: tuple) -> tuple[RunRecord, dict]:
    """Worker entry point: run the cell, return (record, normalised row).

    Mirrors :func:`repro.api.sweep._run_case` but additionally serialises
    the full run for the parent to persist.  The code fingerprint is
    computed in the parent and shipped in, so every worker keys cells
    identically without re-hashing the source tree.
    """

    spec_dict, row_fn, code_version, segment_events, accounting = payload
    spec = ScenarioSpec.from_dict(spec_dict)
    start = time.perf_counter()
    outcome = run_scenario(spec, payload_accounting=accounting)
    elapsed = time.perf_counter() - start
    record = record_from_outcome(
        outcome,
        code_version=code_version,
        segment_events=segment_events,
        elapsed_seconds=elapsed,
    )
    return record, json_normalize(row_fn(outcome))


@dataclass
class SweepReport:
    """What a resumable sweep did: the rows plus the cache accounting."""

    rows: list[dict] = field(default_factory=list)
    run_keys: list[str] = field(default_factory=list)
    ran: int = 0
    skipped: int = 0

    @property
    def total(self) -> int:
        return len(self.rows)


class ResumableSweep:
    """A store-backed sweep runner: cache hits skip execution entirely.

    ``jobs`` means exactly what it means on :class:`~repro.api.SweepRunner`.  ``segment_events`` sets the trace
    persistence granularity for traced scenarios.  The store handle is
    used from the calling thread only (single writer).
    """

    def __init__(
        self,
        store: RunStore,
        *,
        jobs: int = 1,
        segment_events: int = DEFAULT_SEGMENT_EVENTS,
        code_version: str | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.store = store
        self.jobs = jobs
        self.segment_events = segment_events
        self.code_version = (
            code_version if code_version is not None else code_fingerprint()
        )

    def run(
        self,
        sweeps: SweepSpec | Sequence[SweepSpec],
        *,
        row_fn: RowFn | None = None,
        on_cell: CellCallback | None = None,
    ) -> SweepReport:
        """Expand ``sweeps``, execute the missing cells, return every row.

        Rows come back in expansion order; ``on_cell`` fires once per
        scenario in that same order with the row, the backing record and
        whether it was served from the store.
        """

        if isinstance(sweeps, SweepSpec):
            sweeps = [sweeps]
        scenarios = [spec for sweep in sweeps for spec in sweep.scenarios()]
        return self.run_specs(scenarios, row_fn=row_fn, on_cell=on_cell)

    def run_specs(
        self,
        scenarios: Sequence[ScenarioSpec],
        *,
        row_fn: RowFn | None = None,
        on_cell: CellCallback | None = None,
        payload_accounting: bool = False,
    ) -> SweepReport:
        """Execute (or serve from the store) an explicit scenario list.

        The execution engine underneath :meth:`run`, exposed for callers
        whose scenarios are not grid expansions — the scenario search
        hands its mutated candidate batches here.  Rows come back in
        ``scenarios`` order, duplicate run keys execute once, and
        ``payload_accounting`` switches on wire-byte measurement for the
        fresh executions (cache-served rows carry whatever accounting
        their original execution ran under — callers that depend on byte
        columns must use a row function that records them, so cached and
        fresh rows stay interchangeable).
        """

        scenarios = list(scenarios)
        extract = row_fn or _default_row
        fn_name = row_fn_name(extract)
        keys = [run_key(spec, code_version=self.code_version) for spec in scenarios]

        cached_rows: dict[int, dict] = {}
        for index, key in enumerate(keys):
            row = self.store.get_row(key, fn_name)
            if row is not None:
                cached_rows[index] = row

        # One payload per *distinct* missing key, in first-occurrence order
        # (a grid with duplicate axis values expands to identical specs —
        # run them once, reuse the result).
        payload_indices: list[int] = []
        scheduled: set[str] = set()
        for index in range(len(scenarios)):
            if index in cached_rows or keys[index] in scheduled:
                continue
            scheduled.add(keys[index])
            payload_indices.append(index)
        payloads = [
            (
                scenarios[i].to_dict(),
                extract,
                self.code_version,
                self.segment_events,
                payload_accounting,
            )
            for i in payload_indices
        ]
        results = map_jobs(_run_case_record, payloads, self.jobs)

        report = SweepReport(run_keys=keys)
        fresh: dict[str, tuple[dict, RunRecord]] = {}
        for index, spec in enumerate(scenarios):
            key = keys[index]
            cached = True
            if index in cached_rows:
                row: dict = cached_rows[index]
                record: object = self.store.get_run(key)
            elif key in fresh:
                row, record = fresh[key]
            else:
                record, row = next(results)
                if record.run_key != key:  # pragma: no cover - defensive
                    raise StoreError(
                        f"worker keyed cell {index} as {record.run_key[:12]}…, "
                        f"parent expected {key[:12]}… — code-version drift "
                        "between parent and worker processes"
                    )
                self.store.put_run(record, row=row, row_fn=fn_name)
                fresh[key] = (row, record)
                report.ran += 1
                cached = False
            report.rows.append(row)
            if on_cell is not None:
                on_cell(index, spec, row, record, cached)
        report.skipped = len(scenarios) - report.ran
        return report

    def run_aggregated(
        self,
        sweeps: SweepSpec | Sequence[SweepSpec],
        *,
        group_by: Sequence[str],
        metrics: Sequence[str],
        row_fn: RowFn | None = None,
        on_cell: CellCallback | None = None,
    ) -> list[dict]:
        """Run (or resume) and aggregate, mirroring ``SweepRunner``."""

        report = self.run(sweeps, row_fn=row_fn, on_cell=on_cell)
        return aggregate_rows(
            report.rows, group_by=list(group_by), metrics=list(metrics)
        )
