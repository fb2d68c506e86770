"""Regenerate the trace-golden differential fixtures.

The fixtures pin the *full event stream* a traced run produces — kind,
round index, node id, peer id, payload and detail, in recording order —
over a small per-protocol scenario grid (including churn and Byzantine
cases), as recorded from the object-per-event ``Trace`` backend that
predates the columnar rewrite.  ``tests/test_trace_golden.py`` asserts
that the columnar backend reproduces every fixture event-for-event, which
is what makes the store behaviourally invisible to callers.

Usage::

    PYTHONPATH=src python tests/make_trace_golden.py

Payloads and details are serialised with ``repr`` (frozen dataclasses and
scalars, so the encoding is deterministic across processes) and interned
into per-scenario tables; the event stream itself is stored as parallel
columns, mirroring the columnar backend's own layout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import ScenarioSpec  # noqa: E402
from repro.api.sweep import run_scenario  # noqa: E402
from repro.sim.events import EventKind  # noqa: E402

FIXTURE_PATH = Path(__file__).resolve().parent / "fixtures" / "trace_golden.json"

#: ``EventKind`` member values in enum order; the fixture stores kind codes
#: as indexes into this list so it stays readable without being bulky.
KIND_VALUES = tuple(kind.value for kind in EventKind)

#: One scenario per registered protocol plus dedicated churn and Byzantine
#: variants.  Small n and tight round caps keep the fixture compact while
#: still exercising every event kind the simulator records (round starts,
#: sends, deliveries, decisions, halts, joins and leaves).
GRID: tuple[dict, ...] = (
    dict(protocol="reliable-broadcast", n=6, f=1, seed=0,
         adversary="rb-equivocating-sender", params={"byzantine_sender": True}),
    dict(protocol="reliable-broadcast", n=5, f=1, seed=3, adversary="rb-false-echo"),
    dict(protocol="rotor-coordinator", n=5, f=1, seed=0, adversary="rotor-split-echo"),
    dict(protocol="rotor-coordinator", n=6, f=1, seed=2, adversary="silent"),
    dict(protocol="consensus", n=6, f=1, seed=0, adversary="consensus-split-vote"),
    dict(protocol="consensus", n=7, f=2, seed=1, adversary="equivocate-value"),
    dict(protocol="approximate-agreement", n=6, f=1, seed=0, adversary="approx-outlier"),
    dict(protocol="iterated-approximate-agreement", n=6, f=1, seed=0,
         adversary="approx-outlier", churn={"join_fraction": 0.5, "pool": 3}),
    dict(protocol="parallel-consensus", n=6, f=1, seed=0, adversary="random-noise"),
    dict(protocol="total-order", n=5, f=1, seed=0, adversary="equivocate-value",
         churn={"rounds": 14, "join_rate": 0.15, "leave_rate": 0.1}),
    dict(protocol="total-order", n=6, f=0, seed=1, adversary="silent",
         churn={"rounds": 12, "join_rate": 0.2, "leave_rate": 0.05}),
    dict(protocol="srikanth-toueg-broadcast", n=6, f=1, seed=0, adversary="rb-false-echo"),
    dict(protocol="known-f-consensus", n=6, f=1, seed=0, adversary="equivocate-value"),
    dict(protocol="dolev-approx", n=6, f=1, seed=0, adversary="approx-outlier"),
    # Delayed delivery: one scenario per non-synchronous delay model, so
    # per-destination delivery is pinned by recorded fixtures.
    dict(protocol="consensus", n=7, f=2, seed=0, adversary="consensus-split-vote",
         max_rounds=25, delay="uniform-random", delay_params={"max_delay": 3}),
    dict(protocol="consensus", n=7, f=2, seed=0, adversary="consensus-split-vote",
         max_rounds=25, delay="bounded-unknown",
         delay_params={"sizes": [4, 3], "delta": 6}),
    dict(protocol="consensus", n=7, f=2, seed=0, adversary="consensus-split-vote",
         max_rounds=25, delay="partition",
         delay_params={"sizes": [4, 3], "heal_round": 5}),
    dict(protocol="consensus", n=5, f=1, seed=0, adversary="consensus-split-vote",
         max_rounds=40, delay="heavy-tail",
         delay_params={"alpha": 1.2, "scale": 1.0, "max_delay": 8}),
    dict(protocol="consensus", n=5, f=1, seed=0, adversary="consensus-split-vote",
         max_rounds=40, delay="jittered",
         delay_params={"jitter_probability": 0.3, "max_extra": 2}),
)


def scenario_key(options: dict) -> str:
    churn = "churn" if options.get("churn") else "static"
    delay = options.get("delay", "synchronous")
    return (
        f"{options['protocol']}-n{options['n']}-f{options['f']}"
        f"-{options['adversary']}-{churn}-s{options['seed']}"
        + ("" if delay == "synchronous" else f"-{delay}")
    )


def make_spec(options: dict) -> ScenarioSpec:
    return ScenarioSpec(trace=True, **options)


def serialize_trace(trace) -> dict:
    """Project a trace onto JSON-stable parallel columns.

    Payload/detail values are ``repr``-encoded and interned into tables so
    broadcast fan-outs (the same payload delivered to every node) cost one
    table entry plus small integer references.  ``None`` payloads/details
    map to JSON ``null`` rather than an interned ``repr(None)`` so "absent"
    stays distinguishable from a literal ``None`` value.
    """

    payload_table: list[str] = []
    payload_index: dict[str, int] = {}
    detail_table: list[str] = []
    detail_index: dict[str, int] = {}

    def intern(value, table: list[str], index: dict[str, int]):
        if value is None:
            return None
        encoded = repr(value)
        slot = index.get(encoded)
        if slot is None:
            index[encoded] = slot = len(table)
            table.append(encoded)
        return slot

    columns = {
        "kind": [],
        "round": [],
        "node": [],
        "peer": [],
        "payload": [],
        "detail": [],
    }
    for event in trace:
        columns["kind"].append(KIND_VALUES.index(event.kind.value))
        columns["round"].append(event.round_index)
        columns["node"].append(event.node_id)
        columns["peer"].append(event.peer_id)
        columns["payload"].append(intern(event.payload, payload_table, payload_index))
        columns["detail"].append(intern(event.detail, detail_table, detail_index))
    return {
        "payload_table": payload_table,
        "detail_table": detail_table,
        "events": columns,
    }


def generate() -> dict:
    scenarios = []
    for options in GRID:
        spec = make_spec(options)
        outcome = run_scenario(spec)
        serialized = serialize_trace(outcome.result.trace)
        key = scenario_key(options)
        scenarios.append(
            {
                "key": key,
                "spec": spec.to_dict(),
                "rounds_executed": outcome.result.rounds_executed,
                "stop_reason": outcome.result.stop_reason,
                **serialized,
            }
        )
        kinds = serialized["events"]["kind"]
        print(
            f"{key:64s} {len(kinds):6d} events, "
            f"{len(serialized['payload_table']):4d} payloads",
            file=sys.stderr,
        )
    return {
        "description": (
            "Trace-golden differential fixtures: the full event stream of "
            "traced runs over a per-protocol scenario grid, recorded from "
            "the object-per-event Trace backend that predates the columnar "
            "rewrite.  Kind codes index into `kinds`; payload/detail codes "
            "index into per-scenario repr tables."
        ),
        "regenerate": "PYTHONPATH=src python tests/make_trace_golden.py",
        "kinds": list(KIND_VALUES),
        "scenarios": scenarios,
    }


def main() -> int:
    report = generate()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(report, indent=1) + "\n")
    total = sum(len(s["events"]["kind"]) for s in report["scenarios"])
    print(f"wrote {FIXTURE_PATH} ({len(report['scenarios'])} scenarios, {total} events)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
