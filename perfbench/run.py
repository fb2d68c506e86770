"""The benchmark of record for the id-only Byzantine agreement simulator.

Run from the repository root::

    python3 perfbench/run.py --workload broadcast-scale --seed 1 --seconds 10 --trace 0

One invocation measures one workload (see ``workloads.py`` and
``README.md``).  It prints a human-readable report, then, as the last
stdout line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end metrics of
:data:`END_TO_END`; with ``--trace 1`` they are the per-layer metrics of
:data:`PER_LAYER`, from a separate traced pass.  The exit code is 0 when
every op's output passed its check, 1 when one did not, and 2 when no
result could be produced (for example when ``src/`` is missing).

``--spans DIR`` (with ``--trace 1``) also writes every span to
``DIR/<workload>.spans.json``.  ``--quick`` shrinks every workload about
20-fold for the smoke test; its numbers are not comparable to full runs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from _measure import MIN_TAIL_SAMPLES, REFERENCE_S, BenchError, child_env, run_child
from tracing import LAYERS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")

#: (name, unit, better): what a user of the simulator sees.  Times are
#: calibrated to the recording host (see README.md); ``op`` and ``item``
#: are defined per workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "op/s", "higher"),
    ("work_per_s", "item/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: (name, unit, better) from the traced pass.  Each layer reports its self
#: time and its calls per op; the rest are counters at layer boundaries.
PER_LAYER = (
    *((f"{layer}.self_ms_per_op", "ms", "lower") for layer in LAYERS),
    *((f"{layer}.calls_per_op", "count", "lower") for layer in LAYERS),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("sim.network.round_p50_ms", "ms", "lower"),
    ("sim.network.round_p90_ms", "ms", "lower"),
    ("sim.network.deliver_ms_per_op", "ms", "lower"),
    ("sim.network.step_ms_per_op", "ms", "lower"),
    ("sim.network.stage_ms_per_op", "ms", "lower"),
    ("sim.messages.columnar_step_frac", "ratio", "higher"),
    ("core.tally.build_ms_per_op", "ms", "lower"),
    ("core.tally.builds_per_op", "count", "lower"),
    ("search.duplicate_frac", "ratio", "lower"),
    ("search.rejected_per_op", "count", "lower"),
    ("store.service.first_line_ms", "ms", "lower"),
    ("store.service.stream_kb_per_op", "KiB", "lower"),
    ("store.db.file_kb_per_op", "KiB", "lower"),
)

#: Fresh starts timed for ``setup_s``; their median is reported.
SETUP_PROBES = 5
#: Everything, probes included, must finish inside this many seconds.
BUDGET_S = 170.0


def _worker_cmd(args, mode: str, work_dir: Path) -> list[str]:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload",
        args.workload,
        "--mode",
        mode,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--work-dir",
        str(work_dir),
    ]
    if args.quick:
        cmd.append("--quick")
    if args.spans:
        cmd += ["--spans", str(Path(args.spans).resolve())]
    return cmd


def end_to_end(raw: dict, probes: list[dict]) -> dict[str, float]:
    ops_per_s, work_per_s = raw["calibrated_rates"]
    return {
        "setup_s": statistics.median(
            p["setup_s"] * REFERENCE_S / p["calibration_s"] for p in probes
        ),
        "ops_per_s": ops_per_s,
        "work_per_s": work_per_s,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw: dict) -> dict[str, float]:
    ops = max(raw["ops"], 1)
    layers: dict[str, dict] = {}
    for source in (raw["layers"], raw["server_layers"]):
        for layer, entry in source.items():
            total = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            total["self_s"] += entry["self_s"]
            total["calls"] += entry["calls"]
    counters = raw["counters"]

    def counter(name: str) -> float:
        return float(counters.get(name, 0.0))

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    # Milliseconds of the recording host per measured second: the traced
    # pass's calibration, applied to every time below.
    ms = 1e3 * raw["traced_s"] / raw["traced_wall_s"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        entry = layers.get(layer, {"self_s": 0.0, "calls": 0})
        metrics[f"{layer}.self_ms_per_op"] = entry["self_s"] * ms / ops
        metrics[f"{layer}.calls_per_op"] = entry["calls"] / ops
    # Coverage counts this process's layers only: a server's threads run
    # concurrently with the client, so their self time is not wall time.
    attributed = sum(v["self_s"] for k, v in raw["layers"].items() if k != "bench")
    evaluations = counter("evaluations")
    metrics.update(
        {
            "trace.coverage": attributed / raw["traced_wall_s"],
            "trace.overhead": raw["traced_s"] / raw["untraced_s"],
            "sim.network.round_p50_ms": raw["round_s"][0] * ms,
            "sim.network.round_p90_ms": raw["round_s"][1] * ms,
            "sim.network.deliver_ms_per_op": counter("phase_deliver_s") * ms / ops,
            "sim.network.step_ms_per_op": counter("phase_step_s") * ms / ops,
            "sim.network.stage_ms_per_op": counter("phase_stage_s") * ms / ops,
            "sim.messages.columnar_step_frac": ratio(
                counter("columnar_steps"), counter("steps")
            ),
            "core.tally.build_ms_per_op": counter("tally_s") * ms / ops,
            "core.tally.builds_per_op": counter("tally_builds") / ops,
            "search.duplicate_frac": ratio(evaluations - counter("executed"), evaluations),
            "search.rejected_per_op": counter("rejected") / ops,
            "store.service.first_line_ms": ratio(counter("first_line_s") * ms, counter("streams")),
            "store.service.stream_kb_per_op": counter("stream_bytes") / 1024 / ops,
            "store.db.file_kb_per_op": counter("store_bytes") / 1024 / ops,
        }
    )
    return metrics


def _report_measure(raw: dict, probes: list[dict]) -> None:
    ops_per_s, work_per_s = raw["rates"]
    print(
        f"ops: {raw['ops']} in {raw['elapsed_s']:.2f} s over {raw['cycles']} cycles, "
        f"{raw['failed']} failed; work: {raw['work']} x {raw['work_unit']}"
    )
    print(
        f"uncalibrated: {ops_per_s:.4g} op/s, {work_per_s:.4g} item/s; calibration "
        f"kernel {raw['calibration_s'] * 1e3:.2f} ms (reference {REFERENCE_S * 1e3:.2f} ms)"
    )
    tail = (
        f"p90 {raw['p90_s']:.4f} s"
        if raw["beyond_p90"] >= MIN_TAIL_SAMPLES
        else f"p90 not supported ({raw['beyond_p90']} samples beyond it)"
    )
    print(f"op latency: p50 {raw['p50_s']:.4f} s, {tail}, from {raw['ops']} samples")
    for label, entry in sorted(raw["labels"].items()):
        print(f"  {label}: {entry['ops']} ops, p50 {entry['p50_s']:.4f} s")
    print("setup probes (s): " + " ".join(f"{p['setup_s']:.3f}" for p in probes))


def _report_trace(raw: dict, metrics: dict[str, float]) -> None:
    ops = max(raw["ops"], 1)
    print(
        f"traced pass: {raw['ops']} ops, {raw['traced_wall_s']:.2f} s in cycles; "
        f"overhead {metrics['trace.overhead']:.2f}x the untraced pass (calibrated)"
    )
    wall_ms = raw["traced_s"] * 1e3 / ops
    print(f"calibrated self time per op (ms), share of traced wall time ({wall_ms:.2f} ms/op):")
    for layer in LAYERS:
        self_ms = metrics[f"{layer}.self_ms_per_op"]
        if self_ms:
            where = " [server]" if layer in raw["server_layers"] else ""
            print(f"  {layer:26s} {self_ms:10.3f}  {self_ms / wall_ms:7.1%}{where}")
    if raw["server_layers"]:
        print("  ([server] layers run on concurrent threads; their shares may sum past 100%)")
    print(f"coverage by program layers: {metrics['trace.coverage']:.1%}")
    if raw["missing"]:
        print(f"wrap targets not found: {', '.join(raw['missing'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="DIR", help="write spans (with --trace 1)")
    parser.add_argument("--quick", action="store_true", help="shrunken smoke-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    env = child_env(ROOT)
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work_dir.mkdir(parents=True)
    probes: list[dict] = []
    try:
        if not args.trace:
            for _ in range(1 if args.quick else SETUP_PROBES):
                remaining = BUDGET_S - (time.monotonic() - started)
                cmd = _worker_cmd(args, "probe", work_dir) + ["--spawned-at", repr(time.time())]
                probes.append(
                    run_child(cmd, label="set-up probe", env=env, timeout=min(60.0, remaining))
                )
        mode = "trace" if args.trace else "measure"
        remaining = BUDGET_S - (time.monotonic() - started)
        raw = run_child(
            _worker_cmd(args, mode, work_dir), label=f"{mode} worker", env=env, timeout=remaining
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    host = raw["host"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(
        f"host: nproc {host['nproc']}, python {host['python']}, numpy {host['numpy']}, "
        f"git {host['git'] or 'unknown'}, load {host['loadavg']}"
    )
    attempted, failed = raw["ops"], raw["failed"]
    failures = raw["failures"]
    if args.trace:
        attempted += raw["untraced_ops"]
        failed += raw["untraced_failed"]
        failures = raw["untraced_failures"] + failures
        values = per_layer(raw)
        definitions = PER_LAYER
        _report_trace(raw, values)
    else:
        values = end_to_end(raw, probes)
        definitions = END_TO_END
        _report_measure(raw, probes)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    metrics = {}
    for name, unit, better in definitions:
        metrics[name] = {"value": values[name], "unit": unit}
        if not args.trace:
            print(f"{name} = {values[name]:.6g} {unit} ({better} is better)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
