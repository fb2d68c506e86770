"""Scenario-search fan-out benchmark: does ``jobs=2`` beat ``jobs=1``?

In one process, the same searches run at ``jobs=1`` and ``jobs=2`` in
alternating pairs (the side that runs first alternates too), on two bases:

* ``heavy`` — a 16-candidate message-volume search over a churned
  total-order base (n=12, flash-crowd burst + exodus, 60 rounds), where a
  candidate takes about a second and worker start-up is noise;
* ``e6`` — the budget-16 violation search on the E6 base that perfbench's
  ``search-fanout`` workload runs (consensus n=4, uniform-random delays,
  findings confirmed and escalated to n=8), where a candidate takes a few
  milliseconds.

Each pair uses its own search seed, and both sides of a pair must return
byte-identical results (the benchmark asserts it).  One untimed search per
setting warms the worker pool and the caches first, as perfbench's warm-up
op does.  ``BENCH_search.json`` records, per base and setting, every
sample, the median and the quartiles, plus the per-pair ratios and how
many pairs ``jobs=2`` won.

Usage::

    PYTHONPATH=src python benchmarks/bench_search.py            # 5 pairs per base
    PYTHONPATH=src python benchmarks/bench_search.py --quick    # 1 small pair per base
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import ScenarioSpec  # noqa: E402
from repro.search import ScenarioSearch  # noqa: E402

#: The heavy base: enough churn traffic per candidate that process
#: startup and pickling are noise next to simulation time.  No adversary
#: or size ops: candidates stay at n=12 and violation-free, so this base
#: times pure candidate evaluation (no confirmation runs).
HEAVY = {
    "base": ScenarioSpec(
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
    ),
    "search": {"objective": "message_volume", "mutation_ops": ("seed", "churn")},
}

#: perfbench's ``search-fanout`` inputs: the runner's default search base
#: with every mutation op and one escalation size.
E6 = {
    "base": ScenarioSpec(
        protocol="consensus",
        n=4,
        f=1,
        adversary="crash",
        delay="uniform-random",
        delay_params={"max_delay": 6},
        max_rounds=30,
    ),
    "search": {"escalate_n": (8,)},
}

BASES = {"heavy": HEAVY, "e6": E6}
SETTINGS = (1, 2)
#: Alternating jobs=1/jobs=2 pairs per base (``--quick`` runs one).
PAIRS = 5


def run_search(base: dict, budget: int, jobs: int, seed: int) -> tuple[str, float]:
    """One timed search; returns its canonical result and wall-clock."""

    search = ScenarioSearch(
        base["base"], seed=seed, jobs=jobs, code_version="bench", **base["search"]
    )
    start = time.perf_counter()
    result = search.run(budget)
    elapsed = time.perf_counter() - start
    return json.dumps(result.as_dict(), sort_keys=True), elapsed


def quartiles(samples: list[float]) -> dict:
    if len(samples) < 2:
        return {"median": samples[0], "q1": samples[0], "q3": samples[0]}
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def measure(name: str, budget: int, pairs: int, seed: int) -> dict:
    base = BASES[name]
    for jobs in SETTINGS:  # warm-up: starts the pool, fills the caches
        run_search(base, budget, jobs, seed - 1)
    seconds: dict[int, list[float]] = {jobs: [] for jobs in SETTINGS}
    ratios = []
    for pair in range(pairs):
        order = SETTINGS if pair % 2 == 0 else SETTINGS[::-1]
        results = {}
        for jobs in order:
            results[jobs], elapsed = run_search(base, budget, jobs, seed + pair)
            seconds[jobs].append(elapsed)
        if results[1] != results[2]:
            raise SystemExit(f"FATAL: {name} pair {pair}: jobs=1 and jobs=2 differ")
        ratios.append(seconds[1][-1] / seconds[2][-1])
        print(
            f"  {name} pair {pair} (jobs={order[0]} first): "
            f"jobs=1 {seconds[1][-1] * 1e3:.0f} ms, "
            f"jobs=2 {seconds[2][-1] * 1e3:.0f} ms",
            file=sys.stderr,
        )
    return {
        "budget": budget,
        "pairs": pairs,
        "seeds": [seed + pair for pair in range(pairs)],
        **{
            f"jobs{jobs}_seconds": {
                "samples": [round(s, 4) for s in seconds[jobs]],
                **{k: round(v, 4) for k, v in quartiles(seconds[jobs]).items()},
            }
            for jobs in SETTINGS
        },
        "speedup_per_pair": [round(r, 3) for r in ratios],
        "median_speedup": round(statistics.median(ratios), 3),
        "jobs2_wins": sum(r > 1 for r in ratios),
        "results_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=16,
                        help="candidate evaluations per search")
    parser.add_argument("--seed", type=int, default=1,
                        help="search seed of the first pair (pair i uses seed+i)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one pair per base at budget 4")
    parser.add_argument("--out", default="BENCH_search.json",
                        help="output JSON path ('-' for stdout)")
    args = parser.parse_args(argv)
    pairs, budget = (1, 4) if args.quick else (PAIRS, args.budget)

    report = {
        "benchmark": "search-fanout",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "bases": {},
    }
    for name in BASES:
        print(f"search fan-out on the {name} base: budget={budget}, "
              f"{pairs} alternating pairs", file=sys.stderr)
        report["bases"][name] = measure(name, budget, pairs, args.seed)
    payload = json.dumps(report, indent=2)
    if args.out == "-":
        print(payload)
    else:
        Path(args.out).write_text(payload + "\n")
        print(f"report written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
