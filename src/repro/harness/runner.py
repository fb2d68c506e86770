"""Experiment runner: run any subset of E1–E10 and render a report.

Command line usage (from the repository root, after ``pip install -e .``)::

    python -m repro.harness.runner            # run everything at scale 1
    python -m repro.harness.runner E3 E6      # run a subset
    python -m repro.harness.runner --scale 2  # larger sweeps
    python -m repro.harness.runner --jobs 8   # fan out over 8 processes
    python -m repro.harness.runner --seed 99  # re-draw every sweep
    python -m repro.harness.runner --json -   # machine-readable results
    python -m repro.harness.runner --markdown results.md

``--jobs N`` parallelises each experiment's scenario sweep over ``N``
worker processes; the aggregated results are bit-identical to a
sequential run because every scenario carries its own derived seed.
``--json PATH`` (``-`` for stdout) emits the rows machine-readably so
benchmark trajectories can be diffed across PRs.  ``--store PATH``
persists every scenario into a :class:`repro.store.RunStore` and resumes
from it: re-running the same experiments against the same store skips
everything already computed (under the current code version) and still
produces bit-identical reports.

``--search`` switches the runner into property-guided scenario search
(:mod:`repro.search`) instead of running experiments::

    python -m repro.harness.runner --search --search-budget 150 \\
        --search-jobs 4 --store runs.sqlite --search-out counterexamples.json

The search mutates a base spec (``--search-spec PATH`` to supply one as
JSON; the default hunts consensus-agreement breaks under
``UniformRandomDelay`` at n=4) and reports confirmed counterexamples.
``--search-jobs N`` evaluates each candidate generation across ``N``
worker processes — findings are bit-identical for any value.
``--search-objective`` swaps the ranking: ``violations`` (default),
``rounds`` (worst-case latency) or ``message_volume`` (traffic blowups;
candidates run under payload accounting).  With ``--store`` every
candidate evaluation is cached by content-addressed run key (repeat
searches execute nothing) and every finding is persisted, replayable by
run key.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence, TextIO

from ..store import DEFAULT_SEGMENT_EVENTS, RunStore, canonical_dumps
from .experiments import EXPERIMENTS, ExperimentResult, run_experiment

__all__ = [
    "run_many",
    "run_search",
    "write_markdown_report",
    "write_json_report",
    "main",
]


def run_many(
    experiment_ids: Sequence[str] | None = None,
    *,
    scale: int = 1,
    seed: int | None = None,
    jobs: int = 1,
    store: RunStore | None = None,
    segment_events: int = DEFAULT_SEGMENT_EVENTS,
    stream: TextIO | None = None,
) -> list[ExperimentResult]:
    """Run the requested experiments, printing each table as it finishes.

    ``seed`` is forwarded to every experiment (``None`` keeps each
    experiment's canonical default seed) and ``jobs`` sets the
    worker-process count for the underlying sweeps.  ``store`` makes every
    sweep resumable (see :func:`run_experiment`); ``segment_events`` sets
    the persisted trace-segment granularity for traced scenarios.
    """

    stream = stream or sys.stdout
    ids = list(experiment_ids) if experiment_ids else list(EXPERIMENTS)
    results: list[ExperimentResult] = []
    for experiment_id in ids:
        start = time.perf_counter()
        result = run_experiment(
            experiment_id,
            scale=scale,
            seed=seed,
            jobs=jobs,
            store=store,
            segment_events=segment_events,
        )
        elapsed = time.perf_counter() - start
        results.append(result)
        print(result.to_text(), file=stream)
        print(f"({experiment_id} finished in {elapsed:.1f}s)\n", file=stream)
    return results


def write_markdown_report(results: Sequence[ExperimentResult], path: str) -> None:
    """Write the experiment results as a Markdown document."""

    parts = ["# Reproduction results", ""]
    for result in results:
        parts.append(result.to_markdown())
        parts.append("")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts))


def write_json_report(
    results: Sequence[ExperimentResult], path: str, *, indent: int | None = 2
) -> None:
    """Write the results as JSON (``path == "-"`` writes to stdout).

    Keys are sorted and rows keep their aggregation order, so two reports
    produced from the same seeds diff cleanly — including across
    ``--jobs`` settings and between store-resumed and fresh runs (the
    serialization path is the run store's canonical one).
    """

    payload = canonical_dumps(
        [result.as_dict() for result in results], indent=indent
    )
    if path == "-":
        print(payload)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")


#: The default search base: the E6 regime where consensus is known to
#: lose agreement under unpredictable delays — n=4, one crashing
#: Byzantine node, uniform-random delivery up to 6 rounds.
_DEFAULT_SEARCH_BASE = {
    "protocol": "consensus",
    "n": 4,
    "f": 1,
    "adversary": "crash",
    "delay": "uniform-random",
    "delay_params": {"max_delay": 6},
    "max_rounds": 30,
}


def run_search(
    *,
    budget: int = 150,
    seed: int = 0,
    base_spec: dict | None = None,
    escalate_n: Sequence[int] = (8,),
    mutation_ops: Sequence[str] | None = None,
    store: RunStore | None = None,
    jobs: int = 1,
    objective: str = "violations",
    out_path: str | None = None,
    stream: TextIO | None = None,
):
    """Run one property-guided scenario search and report the findings.

    ``jobs`` fans candidate evaluation out over worker processes
    (findings are bit-identical for any value); ``objective`` picks the
    ranking (see :data:`repro.search.OBJECTIVES`).  Returns the
    :class:`repro.search.SearchResult`; when ``out_path`` is given the
    result (specs, violations, run keys, escalations) is also written
    there as JSON so CI can archive counterexamples as artifacts.
    """

    from ..api.spec import ScenarioSpec
    from ..search import ScenarioSearch

    stream = stream or sys.stdout
    spec = ScenarioSpec.from_dict(dict(base_spec or _DEFAULT_SEARCH_BASE))
    search = ScenarioSearch(
        spec,
        seed=seed,
        store=store,
        jobs=jobs,
        objective=objective,
        escalate_n=tuple(escalate_n),
        mutation_ops=None if mutation_ops is None else tuple(mutation_ops),
    )
    start = time.perf_counter()
    result = search.run(budget)
    elapsed = time.perf_counter() - start
    print(
        f"search: {result.evaluations} scenarios evaluated in {elapsed:.1f}s "
        f"({result.executed} executed, {result.cached} from the store), "
        f"{len(result.findings)} confirmed finding(s), "
        f"{result.rejected} rejected at confirmation",
        file=stream,
    )
    for finding in result.findings:
        names = ", ".join(sorted({v.property_name for v in finding.violations}))
        keys = ", ".join(key[:12] for key in finding.run_keys.values())
        print(
            f"  - {names} @ {finding.spec.protocol} n={finding.spec.n} "
            f"f={finding.spec.f} delay={finding.spec.delay} "
            f"adversary={finding.spec.adversary} seed={finding.spec.seed}"
            + (f" [{keys}]" if keys else ""),
            file=stream,
        )
    if objective != "violations" and result.best_spec is not None:
        best = result.best_spec
        print(
            f"  best {objective}: score={result.best_score:.3f} @ "
            f"{best.protocol} n={best.n} f={best.f} delay={best.delay} "
            f"params={best.params} seed={best.seed}",
            file=stream,
        )
    if out_path:
        payload = canonical_dumps(result.as_dict(), indent=2)
        if out_path == "-":
            print(payload, file=stream)
        else:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"search results written to {out_path}", file=stream)
    return result


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (default: all of E1–E10)",
    )
    parser.add_argument("--scale", type=int, default=1, help="sweep size multiplier")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per sweep (results are identical for any value)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="base seed overriding each experiment's default"
    )
    parser.add_argument(
        "--markdown", metavar="PATH", help="also write a Markdown report to PATH"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write machine-readable results to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        help="persist runs to (and resume from) a SQLite run store at PATH",
    )
    parser.add_argument(
        "--segment-events",
        type=int,
        default=DEFAULT_SEGMENT_EVENTS,
        metavar="N",
        help="events per persisted trace segment (traced scenarios with --store)",
    )
    parser.add_argument(
        "--search",
        action="store_true",
        help="run property-guided scenario search instead of experiments",
    )
    parser.add_argument(
        "--search-budget",
        type=int,
        default=150,
        metavar="N",
        help="candidate scenarios the search may evaluate",
    )
    parser.add_argument(
        "--search-spec",
        metavar="PATH",
        help="JSON file holding the base ScenarioSpec to mutate "
        "(default: consensus n=4 under uniform-random delay)",
    )
    parser.add_argument(
        "--search-out",
        metavar="PATH",
        help="write the search result (findings + run keys) as JSON to PATH",
    )
    parser.add_argument(
        "--search-escalate",
        default="8",
        metavar="N,N",
        help="comma-separated larger n values findings are confirmed at",
    )
    parser.add_argument(
        "--search-ops",
        metavar="OP,OP",
        help="restrict the mutation vocabulary (e.g. omit 'delay' to pin "
        "the base delay family); default: all ops",
    )
    parser.add_argument(
        "--search-jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for candidate evaluation "
        "(findings are identical for any value)",
    )
    parser.add_argument(
        "--search-objective",
        default="violations",
        metavar="NAME",
        help="candidate ranking: violations (default), rounds, or "
        "message_volume",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.segment_events < 1:
        parser.error("--segment-events must be at least 1")
    if args.search:
        if args.search_budget < 1:
            parser.error("--search-budget must be at least 1")
        if args.search_jobs < 1:
            parser.error("--search-jobs must be at least 1")
        base_spec = None
        if args.search_spec:
            with open(args.search_spec, "r", encoding="utf-8") as handle:
                base_spec = json.load(handle)
        escalate = tuple(
            int(n) for n in args.search_escalate.split(",") if n.strip()
        )
        ops = (
            tuple(op.strip() for op in args.search_ops.split(",") if op.strip())
            if args.search_ops
            else None
        )
        store = RunStore(args.store) if args.store else None
        try:
            run_search(
                budget=args.search_budget,
                seed=args.seed if args.seed is not None else 0,
                base_spec=base_spec,
                escalate_n=escalate,
                mutation_ops=ops,
                store=store,
                jobs=args.search_jobs,
                objective=args.search_objective,
                out_path=args.search_out,
            )
        finally:
            if store is not None:
                store.close()
        return 0
    store = RunStore(args.store) if args.store else None
    try:
        results = run_many(
            args.experiments or None,
            scale=args.scale,
            seed=args.seed,
            jobs=args.jobs,
            store=store,
            segment_events=args.segment_events,
        )
    finally:
        if store is not None:
            store.close()
    if args.markdown:
        write_markdown_report(results, args.markdown)
        print(f"markdown report written to {args.markdown}")
    if args.json:
        write_json_report(results, args.json)
        if args.json != "-":
            print(f"json report written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
