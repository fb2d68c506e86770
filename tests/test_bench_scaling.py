"""Run-store cells of the scaling benchmark (``benchmarks/bench_scaling.py``).

A bench cell and a sweep run of the same spec share one run key.  A cell
persisted into a store that already holds the sweep run must only add its
row; writing its lightweight record would replace the run's summary,
round columns and trace segments.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.store import ResumableSweep, RunStore, run_key

BENCH_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_scaling.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_scaling", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = load_bench()


def test_bench_cell_keeps_the_sweep_run_under_its_key(tmp_path):
    spec = bench.make_spec("consensus", 10, seed=7, trace=True)
    with RunStore(tmp_path / "runs.db") as store:
        ResumableSweep(store, code_version="v").run_specs([spec])
        key = run_key(spec, code_version="v")
        swept = store.get_run(key)
        rounds, events = swept.per_round(), list(swept.trace())
        assert rounds and events

        counts = {"ran": 0}
        cell = bench._persist_cell(store, spec, "v", bench.bench_cell(spec), counts)

        after = store.get_run(key)
        assert after.summary == swept.summary
        assert after.per_round() == rounds
        assert list(after.trace()) == events
        assert store.get_row(key, bench.BENCH_ROW_FN) == cell
        assert counts["ran"] == 1


def test_bench_cell_alone_stores_a_lightweight_run(tmp_path):
    spec = bench.make_spec("consensus", 10, seed=7)
    with RunStore(tmp_path / "runs.db") as store:
        cell = bench._persist_cell(store, spec, "v", bench.bench_cell(spec), {"ran": 0})
        key = run_key(spec, code_version="v")
        stored = store.get_run(key)
        assert stored.summary == {k: cell[k] for k in ("rounds", "messages", "seconds")}
        assert stored.per_round() == []
        assert store.get_row(key, bench.BENCH_ROW_FN) == cell
