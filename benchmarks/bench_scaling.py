"""Round-throughput scaling benchmark for the two round kernels.

Sweeps ``n`` over the seven id-only protocols and measures round
throughput (simulated rounds per wall-clock second, excluding system
build time) for the selected engines:

* ``vector`` — the columnar synchronous path (``engine="auto"`` resolves
  to this for every synchronous scenario, i.e. all real workloads):
  shared broadcast rounds become a ``ColumnarInbox`` and the protocol
  math consumes numpy batch tallies (``tally_backend: "numpy"``);
* ``queue``  — the round-bucketed envelope queue (general delay models,
  scalar tallies).

Every cell runs the *same* scenario (same spec, same seed, same round
cap) on every engine, and the engines are bit-identical by construction
(see ``tests/test_engine_equivalence.py``), so per-cell throughput
differences are pure engine overhead.  Results land in
``BENCH_scaling.json``, together with the traced/untraced ratios of the
``--trace`` twins.

Usage::

    PYTHONPATH=src python benchmarks/bench_scaling.py                 # full sweep
    PYTHONPATH=src python benchmarks/bench_scaling.py --quick         # n=50 smoke
    PYTHONPATH=src python benchmarks/bench_scaling.py --sizes 50,100 --engines vector
    PYTHONPATH=src python benchmarks/bench_scaling.py --xl            # adds n=2000,5000,10000
    PYTHONPATH=src python benchmarks/bench_scaling.py --profile       # per-phase seconds
    PYTHONPATH=src python benchmarks/bench_scaling.py --store bench.db  # resumable

With ``--store PATH`` every measured cell is persisted to a
:class:`repro.store.RunStore` under its (spec, engine, code-version) run
key; re-running the benchmark against the same store skips cells that
were already measured under the current code version (marked
``"cached": true`` in the JSON) and the report gains a ``store`` section
with the ran/skipped counts.  Editing the simulator changes the code
fingerprint, so stale timings are never reused silently.  Timings are
machine- and load-dependent, of course — the cache exists to make a
long sweep interruptible, not to claim timings are reproducible.
"""

from __future__ import annotations

import argparse
import json
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
#: with sweep rows for the same (spec, engine, code-version) key.
BENCH_ROW_FN = "bench_cell"

DEFAULT_SIZES = (50, 100, 250, 500, 1000)
#: ``--xl`` appends these; only the synchronous kernels run there (the
#: per-workload caps below keep the sweep duration sane — skipped cells
#: are recorded, not dropped).
XL_SIZES = (2000, 5000, 10000)
DEFAULT_ENGINES = ("vector", "queue")

#: The seven id-only protocols (Algorithms 1–6 plus the iterated variant).
#:
#: ``rounds`` caps each measurement; every engine in a (protocol, n) cell
#: pair runs the *same* spec with the same cap, so round caps cancel out of
#: every speedup ratio.  ``rounds_large`` = (n_threshold, rounds) shrinks
#: the cap at large n for the heaviest initialization phases (kept from the
#: pre-wire-format sweeps so per-cell rounds/s stay comparable across PRs).
#: ``caps`` bounds the n each engine is run at; skipped cells are
#: recorded in the JSON rather than silently dropped.
WORKLOADS: dict[str, dict] = {
    # The vector caps only matter for the ``--xl`` sizes: the columnar
    # vector kernel carries reliable broadcast all the way to n=10,000
    # (the roadmap north-star cell), while the heavier protocols stop
    # where a cell would take minutes instead of seconds.
    "reliable-broadcast": {
        "rounds": 4,
        "caps": {"queue": 1000},
    },
    "rotor-coordinator": {
        "rounds": 6,
        "rounds_large": (500, 4),
        "caps": {"queue": 1000, "vector": 5000},
    },
    "consensus": {
        "rounds": 5,
        "rounds_large": (500, 2),
        "caps": {"queue": 500, "vector": 5000},
    },
    "approximate-agreement": {
        "rounds": 4,
        "caps": {"queue": 500, "vector": 5000},
    },
    "iterated-approximate-agreement": {
        "rounds": 6,
        "params": {"iterations": 3},
        "caps": {"queue": 500, "vector": 5000},
    },
    "parallel-consensus": {
        "rounds": 5,
        "rounds_large": (500, 3),
        "params": {"k_instances": 4},
        "caps": {"queue": 250, "vector": 2000},
    },
    # The queue kernel hands every node a private inbox, so the shared
    # inbox-memoized routing/scan indexes of total-order cannot help it
    # and its per-node routing cost stays superlinear (measured: 170 s
    # for the n=250 cell).
    "total-order": {
        "rounds": 6,
        "churn": {"rounds": 6},
        "caps": {"queue": 100, "vector": 2000},
    },
}

#: Traced vector cells are capped by default when no store is given: an
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


def engine_cap(protocol: str, engine: str) -> int | None:
    return WORKLOADS[protocol].get("caps", {}).get(engine)


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
    engine: str,
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
    stage/deliver/step seconds from the engine's round loop plus the
    seconds spent building inbox tallies inside ``repro.core.tally``
    (counted within ``step_seconds``, broken out for attribution).
    """

    system = REGISTRY.build(spec, engine=engine)
    spilled = False
    if spill_store is not None and spec.trace:
        key = run_key(spec, engine=engine, code_version=version)
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
        "engine": engine,
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

    Wire volume is a property of the *scenario*, not the kernel — every
    engine moves the same payloads to the same destinations — so one
    instrumented vector run per (protocol, n) prices the whole cell
    group.  It runs separately from the timed cells because sizing a
    payload costs a pickle per send action.
    """

    system = REGISTRY.build(spec, engine="vector")
    system.network.enable_payload_accounting()
    result = system.network.run(
        max_rounds=spec.max_rounds, stop_when=resolve_stop(spec)
    )
    return {
        "message_bytes": result.metrics.total_payload_bytes,
        "peak_payload_bytes": result.metrics.peak_payload_bytes,
    }


def _load_cached_cell(store, spec: ScenarioSpec, engine: str, version: str) -> dict | None:
    """A previously measured cell for this (spec, engine, code-version), if any."""

    if store is None:
        return None
    row = store.get_row(
        run_key(spec, engine=engine, code_version=version), BENCH_ROW_FN
    )
    return dict(row, cached=True) if row is not None else None


def _persist_cell(store, spec: ScenarioSpec, engine: str, version: str, cell: dict, counts: dict) -> dict:
    """Store one measured cell (after the wire-volume merge) as a bench row."""

    if store is None:
        return cell
    cell = json_normalize(cell)
    record = RunRecord(
        run_key=run_key(spec, engine=engine, code_version=version),
        spec_dict=spec.to_dict(),
        spec_digest=spec.digest(),
        engine=engine,
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
    engines,
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

    def from_cache(spec: ScenarioSpec, engine: str, label: str) -> dict | None:
        cached = _load_cached_cell(store, spec, engine, version)
        if cached is not None:
            counts["skipped"] += 1
            print(
                f"{spec.protocol:32s} n={spec.n:5d} {label:6s} cached "
                f"({cached['rounds']} rounds, {cached['seconds']}s stored)",
                file=sys.stderr,
                flush=True,
            )
        return cached

    cells: list[dict] = []
    for protocol in protocols:
        for n in sizes:
            spec = make_spec(protocol, n, seed)
            # Sized lazily: cap-skipped cell groups must not pay for (or
            # discard) an instrumented run nothing will report.
            volume: dict | None = None
            for engine in engines:
                cap = engine_cap(protocol, engine)
                if cap is not None and n > cap:
                    # such cells take minutes-to-hours at these sizes (see
                    # the WORKLOADS note); record the skip instead of
                    # silently shrinking coverage.  Cap skips are
                    # a sweep-configuration choice, not a measurement — they
                    # are never written to the store.
                    cells.append(
                        {
                            "protocol": protocol,
                            "n": n,
                            "engine": engine,
                            "skipped": f"{engine} capped at n<={cap} for {protocol}",
                        }
                    )
                    continue
                cached = from_cache(spec, engine, engine)
                if cached is not None:
                    cells.append(cached)
                    continue
                cell = bench_cell(spec, engine, profile=profile)
                if wire_volume:
                    if volume is None:
                        volume = measure_wire_volume(spec)
                    cell.update(volume)
                cell = _persist_cell(store, spec, engine, version, cell, counts)
                cells.append(cell)
                # progress goes to stderr so `--out -` emits clean JSON
                print(
                    f"{protocol:32s} n={n:5d} {engine:6s} "
                    f"{cell['rounds']:3d} rounds in {cell['seconds']:8.3f}s "
                    f"({cell['rounds_per_sec']:>10.1f} rounds/s)",
                    file=sys.stderr,
                    flush=True,
                )
            if trace and "vector" in engines and n <= trace_max_n:
                # The traced twin of the vector cell: same spec/seed/round
                # cap with `trace=True`, so traced/untraced ratios are pure
                # trace backend overhead.
                traced_spec = make_spec(protocol, n, seed, trace=True)
                traced_cell = from_cache(traced_spec, "vector", "vector+t")
                if traced_cell is None:
                    traced_cell = bench_cell(
                        traced_spec,
                        "vector",
                        spill_store=store,
                        version=version,
                        segment_events=segment_events,
                        profile=profile,
                    )
                    traced_cell = _persist_cell(
                        store, traced_spec, "vector", version, traced_cell, counts
                    )
                    spill_note = (
                        f", {traced_cell['trace_segments']} segments spilled"
                        if traced_cell.get("trace_spilled")
                        else ""
                    )
                    print(
                        f"{protocol:32s} n={n:5d} vector+trace "
                        f"{traced_cell['rounds']:3d} rounds in "
                        f"{traced_cell['seconds']:8.3f}s "
                        f"({traced_cell['rounds_per_sec']:>10.1f} rounds/s, "
                        f"{traced_cell['trace_events']} events{spill_note})",
                        file=sys.stderr,
                        flush=True,
                    )
                cells.append(traced_cell)

    by_key = {
        (c["protocol"], c["n"], c["engine"], bool(c.get("trace"))): c
        for c in cells
        if "skipped" not in c
    }
    trace_speedups = []
    for protocol in protocols:
        for n in sizes:
            untraced = by_key.get((protocol, n, "vector", False))
            traced = by_key.get((protocol, n, "vector", True))
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
            "Round throughput of the columnar vector kernel and the "
            "bucketed queue kernel; identical scenarios per cell. "
            "message_bytes / peak_payload_bytes size the wire traffic "
            "(serialised payload bytes x copies; engine-independent, measured "
            "on a separate instrumented vector run per (protocol, n))."
        ),
        "python": platform.python_version(),
        "seed": seed,
        "sizes": list(sizes),
        "engines": list(engines),
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
        "--engines",
        default=None,
        help="comma-separated engines (default: vector,queue)",
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
        help="n=50 smoke run (CI): all protocols on both engines",
    )
    parser.add_argument(
        "--xl",
        action="store_true",
        help="append the XL sizes "
        f"({','.join(map(str, XL_SIZES))}) to the sweep; only the vector "
        "kernel is uncapped there (see the WORKLOADS caps)",
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
        help="also run a traced twin of every vector cell (trace=True, same spec)",
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
    engines = tuple(
        e.strip() for e in (args.engines or ",".join(DEFAULT_ENGINES)).split(",")
    )
    protocols = tuple(
        p.strip() for p in (args.protocols or ",".join(WORKLOADS)).split(",")
    )
    for protocol in protocols:
        if protocol not in WORKLOADS:
            parser.error(f"unknown protocol {protocol!r}; known: {', '.join(WORKLOADS)}")
    for engine in engines:
        if engine not in DEFAULT_ENGINES:
            parser.error(f"unknown engine {engine!r}; known: {', '.join(DEFAULT_ENGINES)}")

    store = RunStore(args.store) if args.store else None
    try:
        report = run_sweep(
            sizes,
            engines,
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
