"""Tests for the persistent run store (:mod:`repro.store`).

Covers the run-key contract (digest stability across processes, code
fingerprinting), serialization round-trips (Hypothesis over random
specs, metrics columns, trace segments), resumable-sweep bit-identity
across three protocols including a churned total-order scenario, lazy
trace queries on persisted segments, corruption handling and the
query/pivot/diff report layer.
"""

from __future__ import annotations

import hashlib
import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
from contextlib import closing

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import ScenarioSpec, SweepRunner, SweepSpec
from repro.api.sweep import run_scenario
from repro.sim.events import EventKind, Trace
from repro.sim.metrics import RunMetrics
from repro.store import (
    ResumableSweep,
    RunStore,
    StoreError,
    code_fingerprint,
    json_normalize,
    record_from_outcome,
    run_key,
    spec_digest,
    sweep_digest,
)

def small_spec(**overrides) -> ScenarioSpec:
    base = dict(protocol="consensus", n=4, f=1, seed=3, max_rounds=30)
    base.update(overrides)
    return ScenarioSpec(**base)


@pytest.fixture
def store(tmp_path):
    with RunStore(tmp_path / "runs.db") as handle:
        yield handle


# ---------------------------------------------------------------------------
# Digests and run keys
# ---------------------------------------------------------------------------


def test_spec_digest_ignores_dict_insertion_order():
    a = ScenarioSpec(
        protocol="consensus", n=4, f=1, seed=3, params={"x": 1, "y": 2}
    )
    b = ScenarioSpec(
        protocol="consensus", n=4, f=1, seed=3, params={"y": 2, "x": 1}
    )
    assert a.digest() == b.digest()
    assert spec_digest(a) == a.digest()


def test_spec_digest_distinguishes_every_field():
    base = small_spec()
    assert base.digest() != small_spec(seed=4).digest()
    assert base.digest() != small_spec(n=5).digest()
    assert base.digest() != small_spec(trace=True).digest()


def test_spec_digest_stable_across_processes():
    spec = small_spec(params={"k_instances": 2}, input_params={"ones_fraction": 0.5})
    script = textwrap.dedent(
        """
        from repro.api import ScenarioSpec
        spec = ScenarioSpec(
            protocol="consensus", n=4, f=1, seed=3, max_rounds=30,
            input_params={"ones_fraction": 0.5}, params={"k_instances": 2},
        )
        print(spec.digest())
        """
    )
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src_dir, "PYTHONHASHSEED": "1"},
    )
    assert out.stdout.strip() == spec.digest()


def test_run_key_separates_engine_and_code_version():
    # The key depends on the spec and the code version only; there is no
    # engine component left to separate.
    spec = small_spec()
    auto = run_key(spec, code_version="v1")
    material = f"{spec.digest()}\nv1".encode("ascii")
    assert auto == hashlib.sha256(material).hexdigest()
    assert run_key(spec, code_version="v2") != auto
    assert run_key(spec, code_version="v1") == auto
    with pytest.raises(TypeError):
        run_key(spec, engine="queue", code_version="v1")


def test_code_fingerprint_env_override(monkeypatch):
    real = code_fingerprint()
    assert real == code_fingerprint()  # cached, deterministic
    monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
    assert code_fingerprint() == "pinned"
    monkeypatch.delenv("REPRO_CODE_VERSION")
    assert code_fingerprint() == real


def test_sweep_digest_depends_on_expansion_order():
    sweep = SweepSpec(protocol="consensus", grid={"n": [4, 5]}, max_rounds=20)
    specs = list(sweep.scenarios())
    assert sweep_digest(specs) != sweep_digest(reversed(specs))
    assert sweep_digest(specs) == sweep_digest(iter(specs))


# ---------------------------------------------------------------------------
# Serialization round-trips
# ---------------------------------------------------------------------------

spec_strategy = st.builds(
    lambda n_and_f, seed, protocol, trace: ScenarioSpec(
        protocol=protocol,
        n=n_and_f[0],
        f=n_and_f[1],
        seed=seed,
        max_rounds=12,
        trace=trace,
    ),
    n_and_f=st.integers(min_value=4, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(min_value=0, max_value=(n - 1) // 3)
        )
    ),
    seed=st.integers(min_value=0, max_value=2**16),
    protocol=st.sampled_from(
        ["consensus", "reliable-broadcast", "rotor-coordinator"]
    ),
    trace=st.booleans(),
)


@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=spec_strategy)
def test_persisted_run_round_trips(tmp_path_factory, spec):
    """Persist a random run; everything loads back equal to the original."""

    outcome = run_scenario(spec)
    record = record_from_outcome(outcome, code_version="test")
    path = tmp_path_factory.mktemp("store") / "rt.db"
    with RunStore(path) as store:
        store.put_run(record)
        loaded = store.get_run(record.run_key)
        assert loaded is not None
        assert loaded.spec == spec
        assert loaded.spec_digest == spec.digest()
        assert loaded.summary == json_normalize(outcome.result.metrics.summary())
        # One tally implementation: the summary no longer names a backend.
        assert "tally_backend" not in loaded.summary
        assert loaded.metrics() == outcome.result.metrics
        assert loaded.outputs() == outcome.outputs()
        assert [
            (d.node_id, d.round_index, d.value) for d in loaded.decisions()
        ] == [
            (d.node_id, d.round_index, d.value)
            for d in outcome.result.metrics.decisions
        ]
        if spec.trace:
            stored = loaded.trace()
            assert len(stored) == len(outcome.result.trace)
            assert stored.kind_counts() == outcome.result.trace.kind_counts()


def test_metrics_columns_round_trip():
    outcome = run_scenario(small_spec())
    metrics = outcome.result.metrics
    rebuilt = RunMetrics.from_columns(
        metrics.export_columns(),
        per_node_sent=dict(metrics.per_node_sent),
        per_node_delivered=dict(metrics.per_node_delivered),
        decisions=[
            (d.node_id, d.round_index, d.value) for d in metrics.decisions
        ],
        peak_payload_bytes=metrics.peak_payload_bytes,
    )
    assert rebuilt == metrics
    assert rebuilt.summary() == metrics.summary()
    assert [r.as_dict() for r in rebuilt.rounds] == [
        r.as_dict() for r in metrics.rounds
    ]


def test_trace_segments_round_trip():
    trace = run_scenario(small_spec(trace=True)).result.trace
    segments = trace.export_segments(max_events=32)
    assert sum(f["events"] for f, _ in segments) == len(trace)
    rebuilt = [e for _, blobs in segments for e in Trace.from_segment(blobs)]
    assert rebuilt == trace.events


def test_empty_trace_exports_no_segments():
    assert Trace().export_segments() == []


# ---------------------------------------------------------------------------
# Resumable sweeps: bit-identity across protocols
# ---------------------------------------------------------------------------

RESUME_SWEEPS = [
    SweepSpec(protocol="consensus", grid={"n": [4, 5]}, max_rounds=30),
    SweepSpec(protocol="reliable-broadcast", grid={"n": [4, 7]}, repetitions=2),
    # The E8-style churned total-order scenario: joins/leaves mid-run.
    SweepSpec(
        protocol="total-order",
        n=6,
        f=1,
        adversary="random-noise",
        churn={"join_rate": 0.10, "leave_rate": 0.05, "rounds": 10},
        repetitions=2,
    ),
]


def test_resumable_sweep_bit_identical_across_protocols(store):
    runner = ResumableSweep(store, code_version="test")
    first = runner.run(RESUME_SWEEPS)
    assert (first.ran, first.skipped) == (first.total, 0)
    second = runner.run(RESUME_SWEEPS)
    assert (second.ran, second.skipped) == (0, first.total)
    assert second.rows == first.rows
    assert second.run_keys == first.run_keys
    # A plain (store-less) sweep agrees cell for cell once normalised.
    fresh = SweepRunner().run(RESUME_SWEEPS)
    assert [json_normalize(row) for row in fresh] == first.rows


def test_resumed_outputs_and_metrics_match_fresh_run(store):
    """Stored protocol results equal a fresh run exactly — incl. churn."""

    for sweep in RESUME_SWEEPS:
        for spec in sweep.scenarios():
            outcome = run_scenario(spec)
            key = run_key(spec, code_version="test")
            store.put_run(record_from_outcome(outcome, code_version="test"))
            loaded = store.get_run(key)
            assert loaded.outputs() == outcome.outputs()
            assert loaded.metrics() == outcome.result.metrics


def test_resumable_sweep_partial_resume(store):
    runner = ResumableSweep(store, code_version="test")
    small = SweepSpec(protocol="consensus", grid={"n": [4]}, max_rounds=30)
    both = SweepSpec(protocol="consensus", grid={"n": [4, 5]}, max_rounds=30)
    runner.run(small)
    report = runner.run(both)
    assert (report.ran, report.skipped) == (1, 1)
    assert report.rows == [json_normalize(r) for r in SweepRunner().run(both)]


def test_resumable_sweep_deduplicates_identical_cells(store):
    sweep = SweepSpec(
        protocol="consensus", grid={"n": [4, 4]}, max_rounds=30
    )
    report = ResumableSweep(store, code_version="test").run(sweep)
    # Duplicate grid values expand to identical specs and seeds: the run
    # executes once, both rows are served, and they are identical.
    assert (report.ran, report.total) == (1, 2)
    assert report.rows[0] == report.rows[1]


def test_code_version_change_invalidates_cache(store):
    sweep = SweepSpec(protocol="consensus", grid={"n": [4]}, max_rounds=30)
    assert ResumableSweep(store, code_version="v1").run(sweep).ran == 1
    assert ResumableSweep(store, code_version="v1").run(sweep).ran == 0
    assert ResumableSweep(store, code_version="v2").run(sweep).ran == 1


def test_on_cell_fires_in_expansion_order(store):
    sweep = SweepSpec(protocol="consensus", grid={"n": [4, 5]}, max_rounds=30)
    runner = ResumableSweep(store, code_version="test")
    seen: list[tuple[int, int, bool]] = []
    runner.run(sweep, on_cell=lambda i, spec, row, rec, cached: seen.append((i, spec.n, cached)))
    assert seen == [(0, 4, False), (1, 5, False)]
    seen.clear()
    runner.run(sweep, on_cell=lambda i, spec, row, rec, cached: seen.append((i, spec.n, cached)))
    assert seen == [(0, 4, True), (1, 5, True)]


def test_sweep_runner_on_cell_complete_callback():
    sweep = SweepSpec(protocol="consensus", grid={"n": [4, 5]}, max_rounds=30)
    seen: list[tuple[int, int]] = []
    rows = SweepRunner().run(
        sweep, on_cell_complete=lambda i, spec, row: seen.append((i, spec.n))
    )
    assert seen == [(0, 4), (1, 5)]
    assert rows == SweepRunner().run(sweep)  # default behaviour unchanged


# ---------------------------------------------------------------------------
# Lazy trace queries on persisted segments
# ---------------------------------------------------------------------------


def test_stored_trace_queries_are_lazy(store):
    spec = small_spec(trace=True)
    outcome = run_scenario(spec)
    store.put_run(
        record_from_outcome(outcome, code_version="test", segment_events=64)
    )
    trace = store.get_run(run_key(spec, code_version="test")).trace()
    original = outcome.result.trace
    assert trace.segment_count > 1
    # Counting and sizing are footer-only.
    assert trace.kind_counts() == original.kind_counts()
    assert len(trace) == len(original)
    assert trace.loaded_segment_count == 0
    # Kind queries load only segments whose footer admits the kind.
    decided = trace.of_kind(EventKind.NODE_DECIDED)
    assert decided == original.of_kind(EventKind.NODE_DECIDED)
    assert 0 < trace.loaded_segment_count < trace.segment_count
    assert trace.decisions() == original.decisions()
    assert trace.first(EventKind.ROUND_START) == original.first(
        EventKind.ROUND_START
    )
    # Round queries prune on the footer round range.
    last_round = outcome.result.rounds_executed
    assert trace.in_round(last_round) == original.in_round(last_round)
    # Full scans still agree.
    assert trace.events == original.events
    node = decided[0].node_id
    assert trace.for_node(node) == original.for_node(node)


# ---------------------------------------------------------------------------
# Corruption and validation
# ---------------------------------------------------------------------------


def test_non_database_file_raises_store_error(tmp_path):
    path = tmp_path / "garbage.db"
    path.write_bytes(b"this is not a sqlite database, not even close...")
    with pytest.raises(StoreError):
        RunStore(path)


def test_truncated_database_raises_store_error(tmp_path):
    path = tmp_path / "trunc.db"
    with RunStore(path) as store:
        outcome = run_scenario(small_spec(trace=True))
        store.put_run(record_from_outcome(outcome, code_version="test"))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 3])
    with pytest.raises(StoreError):
        RunStore(path)


def test_schema_version_mismatch_raises(tmp_path):
    path = tmp_path / "old.db"
    with RunStore(path) as store:
        store._conn.execute(
            "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
        )
        store._conn.commit()
    with pytest.raises(StoreError, match="schema version"):
        RunStore(path)


def test_version_one_store_refuses_to_open(tmp_path):
    # Version 2 dropped the engine column; a store written by version-1
    # code must fail loudly rather than be read with the new layout.
    path = tmp_path / "v1.db"
    with RunStore(path) as store:
        store._conn.execute(
            "UPDATE meta SET value = '1' WHERE key = 'schema_version'"
        )
        store._conn.commit()
    with pytest.raises(StoreError, match="schema version 1; this code expects 2"):
        RunStore(path)


# ---------------------------------------------------------------------------
# Killed writers
# ---------------------------------------------------------------------------

#: The cells a killed writer leaves half done, and the code version every
#: process keys them with.
CRASH_SPECS = [small_spec(seed=seed, trace=True) for seed in (1, 2, 3)]
CRASH_CODE_VERSION = "killed-writer"

#: Child prologue: the cells, and a store with the first one complete.
_CRASH_PROLOGUE = """
import os, signal, sys
from repro.api import ScenarioSpec
from repro.store import ResumableSweep, RunStore
specs = [ScenarioSpec.from_dict(spec) for spec in {specs!r}]
store = RunStore(sys.argv[1])
sweep = ResumableSweep(store, code_version={version!r})
sweep.run_specs(specs[:1])
"""

#: Dies inside ``put_run`` of the second cell: SQLite reports each
#: statement as it starts, and the statement after the ``runs`` insert,
#: in the same transaction, clears the cell's round columns.
_KILL_IN_PUT_RUN = """
def die_after_runs_insert(sql):
    if sql.startswith("DELETE FROM round_columns"):
        os.kill(os.getpid(), signal.SIGKILL)
store._conn.set_trace_callback(die_after_runs_insert)
sweep.run_specs(specs)
"""

#: Dies inside the second cell's trace spill, once the sink has
#: committed its first sealed segment.
_KILL_IN_SPILL = """
from repro.api import build_system
from repro.store import TraceSegmentSink, run_key
write = TraceSegmentSink.write
def write_then_die(self, index, footer, blobs):
    write(self, index, footer, blobs)
    os.kill(os.getpid(), signal.SIGKILL)
TraceSegmentSink.write = write_then_die
spec = specs[1]
system = build_system(spec)
sink = store.trace_sink(run_key(spec, code_version={version!r}))
system.network.enable_trace_spill(sink, segment_events=50)
system.network.run(max_rounds=spec.max_rounds)
"""


def _kill_writer(path, body: str) -> None:
    """Run ``body`` in a child that SIGKILLs itself at its code point."""

    import repro

    fill = dict(specs=[spec.to_dict() for spec in CRASH_SPECS], version=CRASH_CODE_VERSION)
    script = (_CRASH_PROLOGUE + body).format(**fill)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    child = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src_dir},
    )
    assert child.returncode == -signal.SIGKILL, child.stderr


@pytest.mark.parametrize(
    "body, orphan_segments",
    [(_KILL_IN_PUT_RUN, 0), (_KILL_IN_SPILL, 1)],
    ids=["put-run", "spill"],
)
def test_a_killed_writer_leaves_a_store_that_resumes(tmp_path, body, orphan_segments):
    path = tmp_path / "killed.db"
    _kill_writer(path, body)
    killed_key = run_key(CRASH_SPECS[1], code_version=CRASH_CODE_VERSION)

    with closing(sqlite3.connect(path)) as conn:
        assert conn.execute("PRAGMA quick_check").fetchall() == [("ok",)]
        # The spill committed its first segment before the kill; put_run's
        # uncommitted transaction left nothing.
        (segments,) = conn.execute(
            "SELECT COUNT(*) FROM trace_segments WHERE run_key = ?", (killed_key,)
        ).fetchone()
        assert segments == orphan_segments
    with RunStore(path) as store:
        # Only the first cell committed; the killed one left no run behind.
        listed = store.query(status=None)
        assert [run.run_key for run in listed] == [
            run_key(CRASH_SPECS[0], code_version=CRASH_CODE_VERSION)
        ]
        assert all(run.status == "complete" for run in listed)
        assert store.get_run(killed_key) is None and not store.has_run(killed_key)
        resumed = ResumableSweep(store, code_version=CRASH_CODE_VERSION).run_specs(
            CRASH_SPECS
        )
        assert (resumed.ran, resumed.skipped) == (2, 1)
        stored_trace = list(store.get_trace(killed_key))

    with RunStore(tmp_path / "uninterrupted.db") as store:
        fresh = ResumableSweep(store, code_version=CRASH_CODE_VERSION).run_specs(
            CRASH_SPECS
        )
        assert resumed.rows == fresh.rows
        assert resumed.run_keys == fresh.run_keys
        assert stored_trace == list(store.get_trace(killed_key))


# ---------------------------------------------------------------------------
# Query / pivot / diff
# ---------------------------------------------------------------------------


def test_query_filters_and_rows(store):
    runner = ResumableSweep(store, code_version="test")
    runner.run(
        [
            SweepSpec(protocol="consensus", grid={"n": [4, 5]}, max_rounds=30),
            SweepSpec(protocol="reliable-broadcast", grid={"n": [4]}),
        ]
    )
    assert len(store.query()) == 3
    assert len(store.query(protocol="consensus")) == 2
    assert len(store.query(protocol="consensus", n=4)) == 1
    assert store.query(protocol="nope") == []
    assert len(store.query(limit=1)) == 1
    assert store.has_run(store.query()[0].run_key)
    assert not store.has_run("0" * 64)


def test_pivot_feeds_table_renderers(store):
    from repro.analysis.tables import render_table
    from repro.store.resumable import row_fn_name

    runner = ResumableSweep(store, code_version="test")
    runner.run(
        SweepSpec(
            protocol="consensus",
            grid={"n": [4, 5]},
            repetitions=2,
            max_rounds=30,
        )
    )
    table = store.pivot(
        ("n", "f"), ("rounds", "messages"), row_fn=row_fn_name(None)
    )
    assert [row["n"] for row in table] == [4, 5]
    assert all(row["samples"] == 2 for row in table)
    assert "rounds" in render_table(table)  # renders without error


def test_diff_reports_spec_summary_and_divergence(store):
    spec_a, spec_b = small_spec(seed=1), small_spec(seed=2)
    key_a, key_b = (
        run_key(s, code_version="test") for s in (spec_a, spec_b)
    )
    for spec in (spec_a, spec_b):
        store.put_run(
            record_from_outcome(run_scenario(spec), code_version="test")
        )
    assert store.diff(key_a, key_a) == {
        "spec": {},
        "summary": {},
        "per_round": {},
        "trace": {},
    }
    diff = store.diff(key_a, key_b)
    assert diff["spec"] == {"seed": [1, 2]}
    with pytest.raises(StoreError, match="not in the store"):
        store.diff(key_a, "0" * 64)


def test_diff_marks_missing_round_columns(store):
    spec_a, spec_b = small_spec(seed=1), small_spec(seed=2)
    record_a = record_from_outcome(run_scenario(spec_a), code_version="test")
    record_b = record_from_outcome(run_scenario(spec_b), code_version="test")
    # A lightweight record (e.g. a bench cell) stores no per-round columns.
    record_b.round_columns = {}
    store.put_run(record_a)
    store.put_run(record_b)
    diff = store.diff(record_a.run_key, record_b.run_key)
    assert diff["per_round"]
    assert set(diff["per_round"].values()) == {"missing"}
    # Differing column *sets* mark only the asymmetric columns.
    record_c = record_from_outcome(run_scenario(spec_b), code_version="other")
    dropped = sorted(record_c.round_columns)[0]
    del record_c.round_columns[dropped]
    store.put_run(record_c)
    diff = store.diff(record_a.run_key, record_c.run_key)
    assert diff["per_round"][dropped] == "missing"


def test_diff_trace_section_reports_divergence(store):
    spec_a, spec_b = (
        small_spec(seed=1, trace=True),
        small_spec(seed=2, trace=True),
    )
    record_a = record_from_outcome(run_scenario(spec_a), code_version="test")
    record_b = record_from_outcome(run_scenario(spec_b), code_version="test")
    store.put_run(record_a)
    store.put_run(record_b)
    # Identical traces: empty section (and no segment decoded to prove it).
    assert store.diff(record_a.run_key, record_a.run_key)["trace"] == {}
    section = store.diff(record_a.run_key, record_b.run_key)["trace"]
    assert section["events"] == [
        sum(f["events"] for f, _ in record_a.trace_segments),
        sum(f["events"] for f, _ in record_b.trace_segments),
    ]
    divergence = section["first_divergence"]
    assert divergence is not None
    assert set(divergence) == {"segment", "index", "kind", "round"}
    assert divergence["segment"] == 0
    # The divergent event is a real position in both traces: re-query it.
    trace_a = store.get_trace(record_a.run_key)
    event = list(trace_a)[divergence["index"]]
    assert event.kind.value == divergence["kind"][0]
    assert event.round_index == divergence["round"][0]


def test_diff_trace_section_one_sided_trace(store):
    traced = record_from_outcome(
        run_scenario(small_spec(seed=1, trace=True)), code_version="test"
    )
    untraced = record_from_outcome(
        run_scenario(small_spec(seed=1)), code_version="other"
    )
    store.put_run(traced)
    store.put_run(untraced)
    section = store.diff(traced.run_key, untraced.run_key)["trace"]
    assert section["events"][1] == 0 and section["events"][0] > 0
    assert section["first_divergence"] == {
        "segment": 0,
        "index": 0,
        "kind": [EventKind.ROUND_START.value, None],
        "round": [1, None],
    }
    # And the mirrored direction:
    flipped = store.diff(untraced.run_key, traced.run_key)["trace"]
    assert flipped["events"] == section["events"][::-1]
    assert flipped["first_divergence"]["kind"] == [
        None,
        EventKind.ROUND_START.value,
    ]


def test_experiment_report_carries_schema_and_sweep_digest(store, tmp_path):
    import json

    from repro.harness.experiments import run_experiment
    from repro.harness.runner import write_json_report
    from repro.store import SCHEMA_VERSION

    fresh = run_experiment("E6", scale=1)
    resumed = run_experiment("E6", scale=1, store=store)
    assert fresh.to_json() == resumed.to_json()
    payload = fresh.as_dict()
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["sweep_digest"] == resumed.sweep_digest != ""
    out = tmp_path / "report.json"
    write_json_report([fresh], str(out))
    assert json.loads(out.read_text())[0] == payload
