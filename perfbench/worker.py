"""Run one workload in this fresh interpreter and print its raw numbers.

``run.py`` starts this script; the last stdout line is a JSON object.
Modes:

``probe``
    Set up the workload and its first cycle, report the seconds since
    ``--spawned-at`` (the caller's clock just before it spawned us), then
    tear down.
``measure``
    Set up, run one untimed warm-up, then whole cycles until ``--seconds``
    have passed and at least :data:`MIN_CYCLES` cycles ran.  No tracing.
``trace``
    The same untraced pass for half of ``--seconds``, then the layer
    wrappers go in and the same cycles run again, traced.  The two passes'
    times give the tracing overhead; the traced pass gives per-layer self
    time.

The calibration kernel (see ``_measure.py``) runs between cycles, outside
every timed region, so each cycle's time can be scaled to the host's speed
at that moment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from _measure import REFERENCE_S, calibrate, host_metadata, percentile, samples_beyond

import tracing
from workloads import WORKLOADS, OpFailure, ServedSweep, Workload

from repro.core.tally import profile_snapshot

#: The median over cycles needs several cycles to be a median.
MIN_CYCLES = 5
#: Peak RSS is read after this many cycles, so every run measures the same
#: work however many cycles it goes on to run.
RSS_CYCLES = 3
#: No cycle starts after this many seconds.
CAP_S = 100.0
#: The benchmark's own HTTP client, traced as the client layer.  Only the
#: op thread's calls are wrapped; the subscriber threads they wait on would
#: otherwise count the same wall time twice.
CLIENT_TARGETS = (
    ("workloads", "ServedSweep._request", "client.http", "call"),
    ("workloads", "ServedSweep._follow", "client.http", "call"),
)


class Pass:
    """What one run of the op loop did."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.by_label: dict[str, list[float]] = defaultdict(list)
        self.failed = 0
        self.failures: list[str] = []
        self.work = 0
        self.elapsed = 0.0
        self.rss_mb = 0.0
        #: Per cycle: (ops, work items, seconds).
        self.cycles: list[tuple[int, int, float]] = []
        #: Calibration kernel seconds before each cycle and after the last.
        self.calibration: list[float] = []

    def cycle_seconds(self, calibrated: bool) -> list[float]:
        """Each cycle's seconds; calibrated ones are recording-host seconds."""

        seconds = [s for _, _, s in self.cycles]
        if not calibrated:
            return seconds
        return [
            s * REFERENCE_S / ((before + after) / 2)
            for s, before, after in zip(seconds, self.calibration, self.calibration[1:])
        ]

    def rates(self, calibrated: bool) -> tuple[float, float]:
        """Median over cycles of ops per second and of work items per second."""

        seconds = self.cycle_seconds(calibrated)
        return (
            statistics.median(ops / s for (ops, _, _), s in zip(self.cycles, seconds)),
            statistics.median(work / s for (_, work, _), s in zip(self.cycles, seconds)),
        )


def run_cycles(
    workload: Workload,
    *,
    seconds: float,
    min_cycles: int,
    cycles: int | None = None,
    recorder: tracing.Recorder | None = None,
) -> Pass:
    """Run whole cycles from cycle 0: a fixed number, or until ``seconds``
    have passed and ``min_cycles`` ran.

    A failed op abandons the rest of its cycle, since later ops may build
    on its state.
    """

    result = Pass()
    start = time.perf_counter()
    while True:
        ops = workload.cycle(len(result.cycles))
        result.calibration.append(calibrate())
        cycle_start, cycle_ops, cycle_work = time.perf_counter(), len(result.latencies), result.work
        for label, fn in ops:
            began = time.perf_counter()
            try:
                if recorder is None:
                    items = fn()
                else:
                    items = recorder.call_op(len(result.latencies), fn)
                ok = True
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                ok = False
                result.failed += 1
                if len(result.failures) < 5:
                    detail = str(exc) if isinstance(exc, OpFailure) else traceback.format_exc()
                    result.failures.append(f"{label}: {detail}")
            elapsed = time.perf_counter() - began
            result.latencies.append(elapsed)
            result.by_label[label].append(elapsed)
            if not ok:
                break
            result.work += items
        now = time.perf_counter()
        result.cycles.append(
            (len(result.latencies) - cycle_ops, result.work - cycle_work, now - cycle_start)
        )
        if len(result.cycles) == RSS_CYCLES:
            result.rss_mb = workload.peak_rss_mb()
        result.elapsed = now - start
        if cycles is not None:
            done = len(result.cycles) >= cycles
        else:
            done = result.elapsed >= seconds and len(result.cycles) >= min_cycles
        if done or result.elapsed >= CAP_S:
            result.calibration.append(calibrate())
            if not result.rss_mb:
                result.rss_mb = workload.peak_rss_mb()
            return result


def _untraced_pass(workload: Workload, args, seconds: float) -> Pass:
    workload.start()
    try:
        for _, fn in workload.cycle(-1)[: workload.warmup_ops]:
            fn()
        return run_cycles(workload, seconds=seconds, min_cycles=1 if args.quick else MIN_CYCLES)
    finally:
        workload.stop()


def _summary(run: Pass) -> dict:
    return {
        "ops": len(run.latencies),
        "failed": run.failed,
        "failures": run.failures,
        "cycles": len(run.cycles),
    }


def measure(workload: Workload, args) -> dict:
    run = _untraced_pass(workload, args, args.seconds)
    return {
        **_summary(run),
        "elapsed_s": run.elapsed,
        "work": run.work,
        "work_unit": workload.work_unit,
        "rates": run.rates(calibrated=False),
        "calibrated_rates": run.rates(calibrated=True),
        "calibration_s": statistics.median(run.calibration),
        "p50_s": percentile(run.latencies, 0.5),
        "p90_s": percentile(run.latencies, 0.9),
        "beyond_p90": samples_beyond(run.latencies, 0.9),
        "labels": {
            label: {"ops": len(values), "p50_s": percentile(values, 0.5)}
            for label, values in run.by_label.items()
        },
        "peak_rss_mb": run.rss_mb,
    }


def trace(workload: Workload, args) -> dict:
    # Half the run length: the traced pass repeats the same cycles more
    # slowly, and the whole run must stay near a measured run's length.
    untraced = _untraced_pass(workload, args, args.seconds / 2)

    # The traced pass replays the untraced pass's cycles, so both passes do
    # the same work and their calibrated times give the tracing overhead.
    recorder = tracing.Recorder()
    missing = tracing.install(recorder, CLIENT_TARGETS)
    workload.reset_counters()
    tally_before = profile_snapshot()
    workload.start(traced=True)
    try:
        traced = run_cycles(
            workload, seconds=0.0, min_cycles=0, cycles=len(untraced.cycles), recorder=recorder
        )
    finally:
        workload.stop()
    tally_after = profile_snapshot()

    counters = defaultdict(float, recorder.counters())
    for name, value in workload.counters().items():
        counters[name] += value
    counters["tally_s"] += tally_after["seconds"] - tally_before["seconds"]
    counters["tally_builds"] += tally_after["builds"] - tally_before["builds"]
    rounds = tracing.round_s(recorder.spans)
    server: dict = {}
    if isinstance(workload, ServedSweep) and workload.spans_path is not None:
        server = json.loads(workload.spans_path.read_text())
        for name, value in server["counters"].items():
            counters[name] += value
        rounds += tracing.round_s(server["spans"])
    if args.spans:
        out = Path(args.spans)
        out.mkdir(parents=True, exist_ok=True)
        recorder.dump(
            out / f"{workload.name}.spans.json",
            workload=workload.name,
            seed=args.seed,
            host=host_metadata(Path(__file__).resolve().parent.parent),
            server=server or None,
        )
    # The traced pass may stop early at CAP_S; compare it with the same
    # cycles of the untraced pass.  Calibration runs fall outside cycles.
    done = len(traced.cycles)
    return {
        **_summary(traced),
        "untraced_s": sum(untraced.cycle_seconds(calibrated=True)[:done]),
        "traced_s": sum(traced.cycle_seconds(calibrated=True)),
        "traced_wall_s": sum(traced.cycle_seconds(calibrated=False)),
        "untraced_ops": len(untraced.latencies),
        "untraced_failed": untraced.failed,
        "untraced_failures": untraced.failures,
        "layers": recorder.layers(),
        "server_layers": server.get("layers", {}),
        "counters": dict(counters),
        "round_s": [percentile(rounds, 0.5), percentile(rounds, 0.9)] if rounds else [0.0, 0.0],
        "missing": missing,
    }


def probe(workload: Workload, spawned_at: float) -> dict:
    workload.start()
    try:
        workload.cycle(0)
        setup_s = time.time() - spawned_at
        return {"setup_s": setup_s, "calibration_s": calibrate()}
    finally:
        workload.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("probe", "measure", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--spans")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](
        seed=args.seed,
        work_dir=Path(args.work_dir),
        quick=args.quick,
        trace=args.mode == "trace",
    )
    if args.mode == "probe":
        result = probe(workload, args.spawned_at)
    elif args.mode == "measure":
        result = measure(workload, args)
    else:
        result = trace(workload, args)
    result["host"] = host_metadata(Path(__file__).resolve().parent.parent)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
