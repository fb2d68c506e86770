"""Scenario-search fan-out benchmark: wall-clock vs ``jobs``.

The same 50-candidate message-volume search over a churned total-order
base (n=12, flash-crowd burst + exodus, 60 rounds) runs at ``jobs=1`` and
``jobs=4``.  Candidate evaluation is the embarrassingly parallel part;
mutation and scoring stay in the parent, so the two runs must return
byte-identical results — the benchmark asserts it — and the roadmap
tracks the jobs=4 speedup (target: ≥3×).  ``BENCH_search.json`` records
both timings and the host CPU count.

Usage::

    PYTHONPATH=src python benchmarks/bench_search.py            # full run
    PYTHONPATH=src python benchmarks/bench_search.py --quick    # small budget
    PYTHONPATH=src python benchmarks/bench_search.py --budget 80 --jobs 8
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import ScenarioSpec  # noqa: E402
from repro.search import ScenarioSearch  # noqa: E402

#: The heavy base: enough churn traffic per candidate that process
#: startup and pickling are noise next to simulation time.
BASE = ScenarioSpec(
    protocol="total-order",
    n=12,
    f=0,
    adversary="silent",
    seed=0,
    max_rounds=60,
    churn={
        "pattern": "flash-crowd",
        "rounds": 60,
        "burst_round": 6,
        "burst_size": 6,
        "burst_byzantine_fraction": 0.0,
        "exodus_round": 30,
        "exodus_fraction": 0.5,
    },
)

#: No adversary/size ops: candidates stay at n=12 and violation-free, so
#: the benchmark times pure candidate evaluation (no confirmation runs).
OPS = ("seed", "churn")


def run_search(budget: int, jobs: int, seed: int) -> tuple[dict, float]:
    search = ScenarioSearch(
        BASE,
        seed=seed,
        jobs=jobs,
        objective="message_volume",
        mutation_ops=OPS,
        code_version="bench",
    )
    start = time.perf_counter()
    result = search.run(budget)
    return result.as_dict(), time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=50,
                        help="candidate evaluations per search run")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the parallel run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small budget smoke (budget=10)")
    parser.add_argument("--out", default="BENCH_search.json",
                        help="output JSON path ('-' for stdout)")
    args = parser.parse_args(argv)
    budget = 10 if args.quick else args.budget

    print(f"search fan-out: budget={budget} base=total-order n={BASE.n} "
          f"objective=message_volume", file=sys.stderr)
    serial, serial_s = run_search(budget, 1, args.seed)
    print(f"  jobs=1: {serial_s:.1f}s", file=sys.stderr)
    parallel, parallel_s = run_search(budget, args.jobs, args.seed)
    print(f"  jobs={args.jobs}: {parallel_s:.1f}s", file=sys.stderr)

    # The whole contract: parallelism changes wall-clock, nothing else.
    for result in (serial, parallel):
        result.pop("executed", None)
        result.pop("cached", None)
    identical = json.dumps(serial, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    )
    if not identical:
        print("FATAL: jobs=1 and parallel results differ", file=sys.stderr)
        return 1
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cpus = os.cpu_count() or 1
    print(f"  speedup: {speedup:.2f}x (identical results)", file=sys.stderr)
    if cpus < args.jobs:
        # map_jobs clamps workers to the core count, so on a starved box
        # the parallel run measures pool overhead, not fan-out.
        print(f"  note: only {cpus} cpu(s) — jobs={args.jobs} cannot "
              "speed up here; the ≥3x roadmap target assumes ≥4 cores",
              file=sys.stderr)

    report = {
        "benchmark": "search-fanout",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": cpus,
        "cpu_bound": cpus < args.jobs,
        "budget": budget,
        "jobs": args.jobs,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "results_identical": identical,
        "best_score": serial["best_score"],
    }
    payload = json.dumps(report, indent=2)
    if args.out == "-":
        print(payload)
    else:
        Path(args.out).write_text(payload + "\n")
        print(f"report written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
