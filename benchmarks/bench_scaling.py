"""Round-throughput scaling benchmark.

Sweeps ``n`` over the seven id-only protocols and measures round
throughput (simulated rounds per wall-clock second, excluding system
build time).  Every scenario is synchronous, so broadcast rounds become
one shared ``ColumnarInbox`` and the protocol math consumes numpy batch
tallies (``tally_backend: "numpy"``).  Results land in
``BENCH_scaling.json``, together with the traced/untraced ratios of the
``--trace`` twins.

Usage::

    PYTHONPATH=src python benchmarks/bench_scaling.py                 # full sweep
    PYTHONPATH=src python benchmarks/bench_scaling.py --quick         # n=50 smoke
    PYTHONPATH=src python benchmarks/bench_scaling.py --sizes 50,100
    PYTHONPATH=src python benchmarks/bench_scaling.py --xl            # adds n=2000,5000,10000
    PYTHONPATH=src python benchmarks/bench_scaling.py --profile       # per-phase seconds
    PYTHONPATH=src python benchmarks/bench_scaling.py --store bench.db  # resumable

With ``--store PATH`` every measured cell is persisted to a
:class:`repro.store.RunStore` under its (spec, code-version) run key —
the key a sweep run of the same spec uses, so a cell never overwrites a
stored sweep run, it only adds its row.  Re-running the benchmark against
the same store skips cells that were already measured under the current
code version (marked ``"cached": true`` in the JSON) and the report
gains a ``store`` section with the ran/skipped counts.  Editing the
simulator changes the code fingerprint, so stale timings are never
reused silently.  Timings are machine- and load-dependent, of course —
the cache exists to make a long sweep interruptible, not to claim
timings are reproducible.
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
from repro.api.registry import REGISTRY  # noqa: E402
from repro.api.sweep import resolve_stop  # noqa: E402
from repro.core import tally  # noqa: E402
from repro.store import (  # noqa: E402
    DEFAULT_SEGMENT_EVENTS,
    RunRecord,
    RunStore,
    code_fingerprint,
    json_normalize,
    run_key,
)

#: Bench rows live under their own row-function label so they never collide
#: with sweep rows for the same (spec, code-version) key.
BENCH_ROW_FN = "bench_cell"

DEFAULT_SIZES = (50, 100, 250, 500, 1000)
#: ``--xl`` appends these (the per-protocol caps below keep the sweep
#: duration sane — skipped cells are recorded, not dropped).
XL_SIZES = (2000, 5000, 10000)

#: The seven id-only protocols (Algorithms 1–6 plus the iterated variant).
#:
#: ``rounds`` caps each measurement; the traced twin of a cell runs the
#: *same* spec with the same cap, so round caps cancel out of the
#: traced/untraced ratios.  ``rounds_large`` = (n_threshold, rounds)
#: shrinks the cap at large n for the heaviest initialization phases (kept
#: from the pre-wire-format sweeps so per-cell rounds/s stay comparable
#: across PRs).  ``cap`` bounds the n a protocol is run at; it only matters
#: for the ``--xl`` sizes: reliable broadcast runs all the way to n=10,000
#: (the roadmap north-star cell), while the heavier protocols stop where a
#: cell would take minutes instead of seconds.  Skipped cells are recorded
#: in the JSON rather than silently dropped.
WORKLOADS: dict[str, dict] = {
    "reliable-broadcast": {"rounds": 4},
    "rotor-coordinator": {"rounds": 6, "rounds_large": (500, 4), "cap": 5000},
    "consensus": {"rounds": 5, "rounds_large": (500, 2), "cap": 5000},
    "approximate-agreement": {"rounds": 4, "cap": 5000},
    "iterated-approximate-agreement": {
        "rounds": 6,
        "params": {"iterations": 3},
        "cap": 5000,
    },
    "parallel-consensus": {
        "rounds": 5,
        "rounds_large": (500, 3),
        "params": {"k_instances": 4},
        "cap": 2000,
    },
    "total-order": {"rounds": 6, "churn": {"rounds": 6}, "cap": 2000},
}

#: Traced cells are capped by default when no store is given: an
#: in-memory traced run keeps every delivered message in the trace store,
#: so memory grows with n² × rounds.  With ``--store`` the traced cells
#: spill sealed segments to the run store as the run executes (peak trace
#: memory = one segment) and the cap lifts — the full n∈{50..1000} sweep
#: records traced twins.
DEFAULT_TRACE_MAX_N = 250


def measured_rounds(protocol: str, n: int) -> int:
    workload = WORKLOADS[protocol]
    threshold, large = workload.get("rounds_large", (None, None))
    if threshold is not None and n >= threshold:
        return large
    return workload["rounds"]


def make_spec(protocol: str, n: int, seed: int, *, trace: bool = False) -> ScenarioSpec:
    workload = WORKLOADS[protocol]
    rounds = measured_rounds(protocol, n)
    churn = dict(workload["churn"], rounds=rounds) if "churn" in workload else None
    return ScenarioSpec(
        protocol=protocol,
        n=n,
        f=(n - 1) // 3,
        adversary="silent",
        seed=seed,
        max_rounds=rounds,
        churn=churn,
        params=workload.get("params", {}),
        stop="never",
        trace=trace,
    )


def bench_cell(
    spec: ScenarioSpec,
    *,
    spill_store: "RunStore | None" = None,
    version: str = "",
    segment_events: int = DEFAULT_SEGMENT_EVENTS,
    profile: bool = False,
) -> dict:
    """Build the system, run the capped scenario, time the run only.

    For traced specs with ``spill_store``, the trace spills sealed
    segments into the store *during* the run (keyed by the cell's run
    key), so peak trace memory is bounded by one segment and the timing
    includes the in-run persistence cost — the thing the spilled sweep
    actually measures.

    With ``profile``, the cell gains a per-phase wall-clock breakdown:
    stage/deliver/step seconds from the network's round loop plus the
    seconds spent building inbox tallies inside ``repro.core.tally``
    (counted within ``step_seconds``, broken out for attribution).
    """

    system = REGISTRY.build(spec)
    spilled = False
    if spill_store is not None and spec.trace:
        key = run_key(spec, code_version=version)
        system.network.enable_trace_spill(
            spill_store.trace_sink(key), segment_events=segment_events
        )
        spilled = True
    if profile:
        system.network.enable_phase_profile()
        tally.reset_profile()
    start = time.perf_counter()
    result = system.network.run(
        max_rounds=spec.max_rounds, stop_when=resolve_stop(spec)
    )
    elapsed = time.perf_counter() - start
    cell = {
        "protocol": spec.protocol,
        "n": spec.n,
        "tally_backend": system.network.tally_backend(),
        "rounds": result.rounds_executed,
        "messages": result.metrics.total_messages,
        "seconds": round(elapsed, 6),
        "rounds_per_sec": round(result.rounds_executed / elapsed, 3) if elapsed else None,
        "messages_per_sec": round(result.metrics.total_messages / elapsed, 1)
        if elapsed
        else None,
    }
    if profile:
        phases = system.network.phase_profile() or {}
        snapshot = tally.profile_snapshot()
        cell["profile"] = {
            "stage_seconds": round(phases.get("stage", 0.0), 6),
            "deliver_seconds": round(phases.get("deliver", 0.0), 6),
            "step_seconds": round(phases.get("step", 0.0), 6),
            "tally_seconds": round(snapshot["seconds"], 6),
            "tally_builds": snapshot["builds"],
        }
    if spec.trace:
        cell["trace"] = True
        cell["trace_events"] = len(result.trace)
        if spilled:
            cell["trace_spilled"] = True
            cell["trace_segments"] = result.trace.segment_count
    return cell


def measure_wire_volume(spec: ScenarioSpec) -> dict:
    """Run the cell once more with payload accounting to size the traffic.

    It runs separately from the timed cell because sizing a payload costs
    a pickle per send action.
    """

    system = REGISTRY.build(spec)
    system.network.enable_payload_accounting()
    result = system.network.run(
        max_rounds=spec.max_rounds, stop_when=resolve_stop(spec)
    )
    return {
        "message_bytes": result.metrics.total_payload_bytes,
        "peak_payload_bytes": result.metrics.peak_payload_bytes,
    }


def _load_cached_cell(store, spec: ScenarioSpec, version: str) -> dict | None:
    """A previously measured cell for this (spec, code-version), if any."""

    if store is None:
        return None
    row = store.get_row(run_key(spec, code_version=version), BENCH_ROW_FN)
    return dict(row, cached=True) if row is not None else None


def _persist_cell(store, spec: ScenarioSpec, version: str, cell: dict, counts: dict) -> dict:
    """Store one measured cell (after the wire-volume merge) as a bench row.

    A sweep run of the same spec shares the cell's run key.  When the store
    already holds a complete run under it, the cell only adds its row: the
    lightweight record below would replace that run's round columns and
    trace segments.
    """

    if store is None:
        return cell
    cell = json_normalize(cell)
    key = run_key(spec, code_version=version)
    if store.has_run(key):
        store.put_row(key, BENCH_ROW_FN, cell)
    else:
        record = RunRecord(
            run_key=key,
            spec_dict=spec.to_dict(),
            spec_digest=spec.digest(),
            code_version=version,
            summary={k: cell[k] for k in ("rounds", "messages", "seconds") if k in cell},
            rounds_executed=int(cell.get("rounds", 0)),
            stop_reason="max_rounds",
            elapsed_seconds=cell.get("seconds"),
            trace_spilled=bool(cell.get("trace_spilled")),
        )
        store.put_run(record, row=cell, row_fn=BENCH_ROW_FN)
    counts["ran"] += 1
    return cell


def run_sweep(
    sizes,
    protocols,
    *,
    seed: int,
    wire_volume: bool = True,
    trace: bool = False,
    trace_max_n: "int | None" = None,
    segment_events: int = DEFAULT_SEGMENT_EVENTS,
    store: "RunStore | None" = None,
    profile: bool = False,
) -> dict:
    version = code_fingerprint() if store is not None else ""
    counts = {"ran": 0, "skipped": 0}
    # Without a store, traced cells hold the whole trace in memory, so the
    # default cap applies; with a store they spill segment-by-segment and
    # the sweep is traced end to end unless the caller caps explicitly.
    if trace_max_n is None:
        trace_max_n = DEFAULT_TRACE_MAX_N if store is None else max(sizes)

    def from_cache(spec: ScenarioSpec, label: str) -> dict | None:
        cached = _load_cached_cell(store, spec, version)
        if cached is not None:
            counts["skipped"] += 1
            print(
                f"{spec.protocol:32s} n={spec.n:5d} {label:5s} cached "
                f"({cached['rounds']} rounds, {cached['seconds']}s stored)",
                file=sys.stderr,
                flush=True,
            )
        return cached

    cells: list[dict] = []
    for protocol in protocols:
        cap = WORKLOADS[protocol].get("cap")
        for n in sizes:
            if cap is not None and n > cap:
                # such cells take minutes-to-hours at these sizes (see the
                # WORKLOADS note); record the skip instead of silently
                # shrinking coverage.  Cap skips are a sweep-configuration
                # choice, not a measurement — they are never written to
                # the store.
                cells.append(
                    {
                        "protocol": protocol,
                        "n": n,
                        "skipped": f"capped at n<={cap} for {protocol}",
                    }
                )
                continue
            spec = make_spec(protocol, n, seed)
            cell = from_cache(spec, "")
            if cell is None:
                cell = bench_cell(spec, profile=profile)
                if wire_volume:
                    cell.update(measure_wire_volume(spec))
                cell = _persist_cell(store, spec, version, cell, counts)
                # progress goes to stderr so `--out -` emits clean JSON
                print(
                    f"{protocol:32s} n={n:5d} "
                    f"{cell['rounds']:3d} rounds in {cell['seconds']:8.3f}s "
                    f"({cell['rounds_per_sec']:>10.1f} rounds/s)",
                    file=sys.stderr,
                    flush=True,
                )
            cells.append(cell)
            if trace and n <= trace_max_n:
                # The traced twin of the cell: same spec/seed/round cap with
                # `trace=True`, so traced/untraced ratios are pure trace
                # backend overhead.
                traced_spec = make_spec(protocol, n, seed, trace=True)
                traced_cell = from_cache(traced_spec, "trace")
                if traced_cell is None:
                    traced_cell = bench_cell(
                        traced_spec,
                        spill_store=store,
                        version=version,
                        segment_events=segment_events,
                        profile=profile,
                    )
                    traced_cell = _persist_cell(
                        store, traced_spec, version, traced_cell, counts
                    )
                    spill_note = (
                        f", {traced_cell['trace_segments']} segments spilled"
                        if traced_cell.get("trace_spilled")
                        else ""
                    )
                    print(
                        f"{protocol:32s} n={n:5d} trace "
                        f"{traced_cell['rounds']:3d} rounds in "
                        f"{traced_cell['seconds']:8.3f}s "
                        f"({traced_cell['rounds_per_sec']:>10.1f} rounds/s, "
                        f"{traced_cell['trace_events']} events{spill_note})",
                        file=sys.stderr,
                        flush=True,
                    )
                cells.append(traced_cell)

    by_key = {
        (c["protocol"], c["n"], bool(c.get("trace"))): c
        for c in cells
        if "skipped" not in c
    }
    trace_speedups = []
    for protocol in protocols:
        for n in sizes:
            untraced = by_key.get((protocol, n, False))
            traced = by_key.get((protocol, n, True))
            if traced and traced["rounds_per_sec"]:
                entry = {
                    "protocol": protocol,
                    "n": n,
                    "trace_events": traced["trace_events"],
                    "traced_rounds_per_sec": traced["rounds_per_sec"],
                }
                if untraced and untraced["rounds_per_sec"]:
                    entry["traced_over_untraced"] = round(
                        traced["rounds_per_sec"] / untraced["rounds_per_sec"], 3
                    )
                trace_speedups.append(entry)

    report = {
        "benchmark": "bench_scaling",
        "description": (
            "Round throughput of the seven id-only protocols on synchronous "
            "scenarios (shared columnar inboxes, numpy tallies). "
            "message_bytes / peak_payload_bytes size the wire traffic "
            "(serialised payload bytes x copies, measured on a separate "
            "instrumented run per (protocol, n))."
        ),
        "python": platform.python_version(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "seed": seed,
        "sizes": list(sizes),
        "cells": cells,
        "trace_speedups": trace_speedups,
    }
    if store is not None:
        # ran/skipped count *measurements* only; cap-skipped cells are a
        # sweep-configuration choice and never enter the store accounting.
        measured = sum(1 for c in cells if "skipped" not in c)
        if counts["ran"] + counts["skipped"] != measured:
            raise RuntimeError(
                f"store bookkeeping drifted: ran={counts['ran']} + "
                f"skipped={counts['skipped']} != {measured} measured cells"
            )
        report["store"] = {
            "path": store.path,
            "code_version": version,
            "ran": counts["ran"],
            "skipped": counts["skipped"],
            "measured": measured,
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", default=None, help="comma-separated n values (default: 50,100,250,500,1000)"
    )
    parser.add_argument(
        "--protocols", default=None, help="comma-separated protocol subset (default: all seven)"
    )
    parser.add_argument("--seed", type=int, default=7, help="scenario seed (default: 7)")
    parser.add_argument(
        "--out", default="BENCH_scaling.json", help="output JSON path ('-' for stdout)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="n=50 smoke run (CI): all seven protocols",
    )
    parser.add_argument(
        "--xl",
        action="store_true",
        help="append the XL sizes "
        f"({','.join(map(str, XL_SIZES))}) to the sweep, up to each "
        "protocol's cap (see WORKLOADS)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record a per-cell phase breakdown (stage/deliver/step/tally "
        "seconds)",
    )
    parser.add_argument(
        "--no-bytes",
        action="store_true",
        help="skip the instrumented wire-volume pass (message_bytes columns)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="also run a traced twin of every cell (trace=True, same spec)",
    )
    parser.add_argument(
        "--trace-max-n",
        type=int,
        default=None,
        help="skip traced cells above this n (default: "
        f"{DEFAULT_TRACE_MAX_N} in-memory; uncapped with --store, where "
        "traced cells spill segments to the store as they run)",
    )
    parser.add_argument(
        "--segment-events",
        type=int,
        default=DEFAULT_SEGMENT_EVENTS,
        metavar="N",
        help="events per spilled trace segment (traced cells with --store; "
        f"default: {DEFAULT_SEGMENT_EVENTS})",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="cache measured cells in a run store; cells already measured "
        "under the current code version are reused instead of re-run",
    )
    args = parser.parse_args(argv)

    sizes = (
        (50,)
        if args.quick and args.sizes is None
        else tuple(int(s) for s in (args.sizes or ",".join(map(str, DEFAULT_SIZES))).split(","))
    )
    if args.xl:
        sizes = sizes + tuple(n for n in XL_SIZES if n not in sizes)
    protocols = tuple(
        p.strip() for p in (args.protocols or ",".join(WORKLOADS)).split(",")
    )
    for protocol in protocols:
        if protocol not in WORKLOADS:
            parser.error(f"unknown protocol {protocol!r}; known: {', '.join(WORKLOADS)}")

    store = RunStore(args.store) if args.store else None
    try:
        report = run_sweep(
            sizes,
            protocols,
            seed=args.seed,
            wire_volume=not args.no_bytes,
            trace=args.trace,
            trace_max_n=args.trace_max_n,
            segment_events=args.segment_events,
            store=store,
            profile=args.profile,
        )
    finally:
        if store is not None:
            store.close()
    payload = json.dumps(report, indent=2)
    if args.out == "-":
        print(payload)
    else:
        Path(args.out).write_text(payload + "\n")
        print(f"wrote {args.out}")
    if "store" in report:
        print(
            f"store: {report['store']['ran']} cells measured, "
            f"{report['store']['skipped']} served from {report['store']['path']}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
