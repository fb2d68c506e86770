"""Trace-golden differential suite for the columnar trace backend.

``tests/fixtures/trace_golden.json`` pins the full event stream of traced
runs — kind, round index, node id, peer id, payload and detail, in
recording order — as recorded from the object-per-event ``Trace`` backend
that predates the columnar rewrite.  Any change to the trace store or the
kernels' recording paths must reproduce these fixtures event-for-event.

Regenerate (only when the *intended* observable event stream changes)::

    PYTHONPATH=src python tests/make_trace_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import DELAY_KINDS, ScenarioSpec
from repro.api.sweep import run_scenario
from repro.sim.events import EventKind

from make_delayed_digests import kernel_path
from make_trace_golden import KIND_VALUES, serialize_trace

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "trace_golden.json"

with FIXTURE_PATH.open() as handle:
    FIXTURES = json.load(handle)

SCENARIOS = {scenario["key"]: scenario for scenario in FIXTURES["scenarios"]}

COLUMNS = ("kind", "round", "node", "peer", "payload", "detail")


def test_kind_code_table_is_stable():
    """The fixture's kind codes must match the enum member order."""

    assert tuple(FIXTURES["kinds"]) == KIND_VALUES
    assert KIND_VALUES == tuple(kind.value for kind in EventKind)


@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_columnar_backend_reproduces_golden_traces(key):
    scenario = SCENARIOS[key]
    outcome = run_scenario(ScenarioSpec.from_dict(scenario["spec"]))
    assert outcome.result.rounds_executed == scenario["rounds_executed"]
    assert outcome.result.stop_reason == scenario["stop_reason"]
    # The serialisation projection is shared with the fixture generator so
    # both sides always compare the same fields under the same encoding.
    got = serialize_trace(outcome.result.trace)
    assert got["payload_table"] == scenario["payload_table"], (
        f"{key}: payload intern table diverged"
    )
    assert got["detail_table"] == scenario["detail_table"], (
        f"{key}: detail table diverged"
    )
    want_events = scenario["events"]
    for column in COLUMNS:
        if got["events"][column] != want_events[column]:
            first = next(
                i
                for i, (g, w) in enumerate(
                    zip(got["events"][column], want_events[column])
                )
                if g != w
            )
            raise AssertionError(
                f"{key}: column {column!r} diverged at event {first}: "
                f"got {got['events'][column][first]!r}, "
                f"want {want_events[column][first]!r}"
            )
        assert len(got["events"][column]) == len(want_events[column]), (
            f"{key}: column {column!r} length diverged"
        )


@pytest.mark.parametrize(
    "engine,key",
    [
        ("queue", "consensus-n6-f1-consensus-split-vote-static-s0"),
        ("legacy", "consensus-n6-f1-consensus-split-vote-static-s0"),
        ("queue", "total-order-n5-f1-equivocate-value-churn-s0"),
        ("legacy", "total-order-n5-f1-equivocate-value-churn-s0"),
    ],
)
def test_reference_kernels_reproduce_golden_traces(engine, key):
    """The per-destination path is pinned on synchronous runs too.

    Synchronous fixtures replay on the shared columnar path above; their
    per-destination twin must match the same golden columns.  (Delayed
    fixtures always replay per destination.)  Both retired kernel names,
    ``queue`` and ``legacy``, run the twin.
    """

    scenario = SCENARIOS[key]
    spec = ScenarioSpec.from_dict(scenario["spec"])
    with kernel_path(engine):
        outcome = run_scenario(spec)
    got = serialize_trace(outcome.result.trace)
    assert got["payload_table"] == scenario["payload_table"]
    assert got["events"] == scenario["events"]


def test_fixture_grid_is_nontrivial():
    """Guard the guard: the grid must exercise every recorded event kind."""

    seen_kinds: set[str] = set()
    seen_protocols: set[str] = set()
    seen_delays: set[str] = set()
    churn_scenarios = 0
    byzantine_scenarios = 0
    total_events = 0
    for scenario in SCENARIOS.values():
        kinds = scenario["events"]["kind"]
        total_events += len(kinds)
        seen_kinds.update(FIXTURES["kinds"][code] for code in set(kinds))
        seen_protocols.add(scenario["spec"]["protocol"])
        seen_delays.add(scenario["spec"]["delay"])
        if scenario["spec"]["churn"]:
            churn_scenarios += 1
        if scenario["spec"]["f"] > 0 and scenario["spec"]["adversary"] != "silent":
            byzantine_scenarios += 1
    assert seen_kinds == {kind.value for kind in EventKind}
    assert len(seen_protocols) >= 10
    # Every delay model is pinned, so delayed delivery is checked against
    # recorded fixtures rather than only against a second live kernel.
    assert seen_delays == set(DELAY_KINDS)
    assert churn_scenarios >= 2
    assert byzantine_scenarios >= 5
    assert total_events > 5000
