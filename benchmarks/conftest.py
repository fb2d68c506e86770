"""Shared helpers for the benchmark suite.

Each benchmark module regenerates one experiment from DESIGN.md §2 (the
paper has no numerical tables/figures, so these experiments *are* the
evaluation).  ``pytest-benchmark`` measures the wall-clock cost of one full
experiment sweep; the benchmark body also asserts the experiment's headline
property so a regression in correctness fails the benchmark run, not just
the timing.

The experiments run through the declarative sweep engine, so the benchmarks
can fan scenarios out over worker processes without changing the measured
results — set ``REPRO_BENCH_JOBS=N`` to measure the parallel path (the
aggregated rows are bit-identical for any N).

pytest's default file pattern (``test_*.py``) does not match
``bench_*.py``, so name the files.  To run the claim checks once, untimed
(as CI does)::

    PYTHONPATH=src python -m pytest benchmarks/bench_e*.py benchmarks/bench_a*.py -q --benchmark-disable

To time them::

    PYTHONPATH=src python -m pytest benchmarks/bench_e*.py benchmarks/bench_a*.py --benchmark-only
    REPRO_BENCH_JOBS=8 PYTHONPATH=src python -m pytest benchmarks/bench_e*.py benchmarks/bench_a*.py --benchmark-only
"""

from __future__ import annotations

import os

import pytest

from repro.harness import run_experiment

#: Worker processes per experiment sweep (1 = sequential, the default).
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


@pytest.fixture
def run_one(benchmark):
    """Run an experiment exactly once under the benchmark timer."""

    def _run(experiment_id: str, scale: int = 1):
        return benchmark.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs={"scale": scale, "jobs": BENCH_JOBS},
            rounds=1,
            iterations=1,
        )

    return _run


def rate(rows, column):
    """Average value of a rate column across aggregated rows."""

    values = [row[column] for row in rows if column in row]
    return sum(values) / len(values) if values else float("nan")
