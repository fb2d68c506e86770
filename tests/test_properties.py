"""Property-based tests (Hypothesis) over random scenarios.

Rather than checking hand-picked configurations, these tests draw random
``(n, f, seed, adversary)`` scenarios — with ``n > 3f``, the paper's
resiliency assumption — and assert the protocol theorems' safety
properties on every one of them: consensus agreement and validity,
reliable-broadcast correctness and no-forgery, approximate-agreement
range containment.  A second group checks structural invariants of the
declarative API (``ScenarioSpec`` JSON round-trips) and the
shared-vs-per-destination delivery equivalence on random scenarios.

The suite is derandomized so CI runs are reproducible; bump
``max_examples`` locally to fuzz harder.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import chains_are_prefixes
from repro.analysis.properties import (
    approx_outputs_in_range,
    consensus_agreement,
    consensus_validity,
    reliable_broadcast_correctness,
)
from repro.api import ScenarioSpec
from repro.api.sweep import run_scenario
from repro.dynamic import build_total_order_system, generate_churn_schedule
from repro.sim.events import EventKind, Trace, TraceEvent

from make_delayed_digests import kernel_path

COMMON = settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=2**16)


@st.composite
def populations(draw, min_n=4, max_n=10):
    """A random ``(n, f)`` pair satisfying the paper's ``n > 3f``."""

    n = draw(st.integers(min_value=min_n, max_value=max_n))
    f = draw(st.integers(min_value=0, max_value=(n - 1) // 3))
    return n, f


# ---------------------------------------------------------------------------
# Protocol safety invariants
# ---------------------------------------------------------------------------


@COMMON
@given(
    nf=populations(),
    seed=seeds,
    adversary=st.sampled_from(
        ["silent", "crash", "consensus-split-vote", "equivocate-value", "random-noise"]
    ),
    ones_fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_consensus_agreement_and_validity(nf, seed, adversary, ones_fraction):
    n, f = nf
    spec = ScenarioSpec(
        protocol="consensus",
        n=n,
        f=f,
        adversary=adversary,
        seed=seed,
        inputs="binary",
        input_params={"ones_fraction": ones_fraction},
    )
    outcome = run_scenario(spec)
    outputs = outcome.outputs()
    inputs = outcome.system.params["inputs"]
    assert consensus_agreement(outputs), f"agreement violated: {outputs}"
    assert consensus_validity(outputs, inputs), f"validity violated: {outputs}"


@COMMON
@given(
    nf=populations(),
    seed=seeds,
    adversary=st.sampled_from(
        ["silent", "crash", "rb-false-echo", "rb-forged-source", "replay"]
    ),
)
def test_reliable_broadcast_correctness_and_no_forgery(nf, seed, adversary):
    n, f = nf
    spec = ScenarioSpec(
        protocol="reliable-broadcast", n=n, f=f, adversary=adversary, seed=seed
    )
    outcome = run_scenario(spec)
    procs = list(outcome.correct_processes().values())
    message = outcome.system.params["message"]
    source = outcome.system.params["source"]
    # Theorem 1 correctness: every correct node accepts the correct
    # sender's message.
    assert reliable_broadcast_correctness(procs, message, source)
    # No-forgery: nothing is ever accepted *from the correct source* other
    # than what it actually broadcast, no matter what the adversary claims.
    for proc in procs:
        for record in proc.accepted:
            if record.source == source:
                assert record.message == message


@COMMON
@given(
    nf=populations(),
    seed=seeds,
    adversary=st.sampled_from(["silent", "crash", "approx-outlier", "random-noise"]),
)
def test_approximate_agreement_outputs_stay_in_correct_range(nf, seed, adversary):
    n, f = nf
    spec = ScenarioSpec(
        protocol="approximate-agreement", n=n, f=f, adversary=adversary, seed=seed
    )
    outcome = run_scenario(spec)
    outputs = outcome.outputs()
    inputs = outcome.system.params["inputs"]
    assert approx_outputs_in_range(outputs, inputs), (
        f"outputs {outputs} escaped the correct input range "
        f"[{min(inputs.values())}, {max(inputs.values())}]"
    )


@COMMON
@given(
    initial_correct=st.integers(min_value=4, max_value=8),
    initial_byzantine=st.integers(min_value=0, max_value=2),
    join_rate=st.sampled_from([0.0, 0.15, 0.3]),
    leave_rate=st.sampled_from([0.0, 0.1, 0.2]),
    adversary=st.sampled_from(
        ["silent", "crash", "random-noise", "equivocate-value"]
    ),
    seed=st.integers(min_value=0, max_value=2**10),
)
def test_total_order_safety_under_random_churn(
    initial_correct, initial_byzantine, join_rate, leave_rate, adversary, seed
):
    """Theorem 6 safety on random churn schedules.

    * genesis-correct chains are prefix-consistent;
    * no chain carries two entries for the same ``(instance_round,
      reporter)`` (correct reporters witness at most one event per round,
      and none of the sampled adversaries forges ``EventMsg`` payloads);
    * a correct joiner's chain converges with the stayers': on every
      instance round both chains cover, the decided entries are identical.
    """

    rounds = 40
    if initial_correct <= 3 * initial_byzantine:
        initial_correct = 3 * initial_byzantine + 1
    schedule = generate_churn_schedule(
        initial_correct=initial_correct,
        initial_byzantine=initial_byzantine,
        rounds=rounds,
        join_rate=join_rate,
        leave_rate=leave_rate,
        seed=seed,
    )
    system = build_total_order_system(schedule, strategy=adversary, seed=seed)
    system.network.run(max_rounds=rounds, stop_when=lambda _net: False)

    genesis_chains = list(system.chains().values())
    assert chains_are_prefixes(genesis_chains)

    correct_nodes = {
        node_id: process
        for node_id, process in system.network.processes().items()
        if not process.is_byzantine
    }
    for node_id, process in correct_nodes.items():
        keys = [(entry.instance_round, entry.reporter) for entry in process.chain]
        assert len(keys) == len(set(keys)), f"duplicate entry in chain of {node_id}"

    # Joiner convergence: compare every correct node (joiners included)
    # against the longest genesis chain, grouped by instance round.
    reference = max(genesis_chains, key=len, default=())
    by_round: dict[int, list] = {}
    for entry in reference:
        by_round.setdefault(entry.instance_round, []).append(entry)
    for node_id, process in correct_nodes.items():
        groups: dict[int, list] = {}
        for entry in process.chain:
            groups.setdefault(entry.instance_round, []).append(entry)
        for instance_round, group in groups.items():
            if instance_round in by_round:
                assert group == by_round[instance_round], (
                    f"node {node_id} diverged from the genesis chain on "
                    f"instance round {instance_round}"
                )


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


scenario_specs = st.builds(
    ScenarioSpec,
    protocol=st.sampled_from(["consensus", "reliable-broadcast", "total-order"]),
    n=st.integers(min_value=4, max_value=50),
    f=st.integers(min_value=0, max_value=1),
    adversary=st.sampled_from(["silent", "crash", "replay"]),
    seed=seeds,
    max_rounds=st.one_of(st.none(), st.integers(min_value=1, max_value=500)),
    inputs=st.sampled_from(["default", "binary"]),
    input_params=st.dictionaries(
        st.sampled_from(["ones_fraction"]), st.sampled_from([0.25, 0.5]), max_size=1
    ),
    params=st.dictionaries(
        st.sampled_from(["message", "substitution"]),
        st.sampled_from(["hello", "narrow"]),
        max_size=2,
    ),
    stop=st.sampled_from(["default", "decided", "never"]),
    trace=st.booleans(),
)


@COMMON
@given(spec=scenario_specs)
def test_scenario_spec_round_trips_through_json(spec):
    payload = json.loads(json.dumps(spec.to_dict()))
    restored = ScenarioSpec.from_dict(payload)
    assert restored == spec
    assert restored.to_dict() == spec.to_dict()


@COMMON
@given(
    nf=populations(max_n=8),
    seed=seeds,
    protocol=st.sampled_from(
        ["consensus", "reliable-broadcast", "approximate-agreement"]
    ),
    adversary=st.sampled_from(["silent", "crash", "equivocate-value"]),
)
def test_fast_and_queue_engines_agree_on_random_scenarios(nf, seed, protocol, adversary):
    # ``vector`` (once ``fast``) is the shared delivery path, ``queue`` its
    # per-destination twin.
    n, f = nf
    spec = ScenarioSpec(
        protocol=protocol, n=n, f=f, adversary=adversary, seed=seed, trace=True
    )
    outcomes = {}
    for engine in ("vector", "queue"):
        with kernel_path(engine):
            outcomes[engine] = run_scenario(spec)
    events = {
        engine: [
            (e.kind, e.round_index, e.node_id, e.peer_id, e.payload)
            for e in outcome.result.trace
        ]
        for engine, outcome in outcomes.items()
    }
    assert events["vector"] == events["queue"]
    assert (
        outcomes["vector"].result.metrics.as_dict()
        == outcomes["queue"].result.metrics.as_dict()
    )
    assert outcomes["vector"].outputs() == outcomes["queue"].outputs()


# ---------------------------------------------------------------------------
# Columnar trace backend: round-trip against the object reference model
# ---------------------------------------------------------------------------


trace_node_ids = st.one_of(st.none(), st.integers(min_value=0, max_value=9))
trace_payloads = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5),
    st.text(max_size=3),
    st.tuples(st.integers(0, 3), st.text(max_size=2)),
)
trace_details = st.one_of(st.none(), st.integers(-3, 3), st.text(max_size=3))

trace_events = st.builds(
    TraceEvent,
    kind=st.sampled_from(list(EventKind)),
    round_index=st.integers(min_value=0, max_value=30),
    node_id=trace_node_ids,
    peer_id=trace_node_ids,
    payload=trace_payloads,
    detail=trace_details,
)

#: One fan-out of a round: empty, single-destination (a unicast) or
#: many-destination (a broadcast).
trace_batches = st.tuples(
    st.integers(min_value=0, max_value=9),  # sender
    trace_payloads,
    st.one_of(
        st.just(()),
        st.tuples(st.integers(min_value=0, max_value=9)),
        st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=6).map(
            tuple
        ),
    ),
)

#: One recording action: a pre-built event through ``record``, a scalar
#: append through ``record_event``, or a round's batch list through one of
#: the columnar variants.
trace_ops = st.one_of(
    st.tuples(st.just("record"), trace_events),
    st.tuples(st.just("record_event"), trace_events),
    st.tuples(
        st.sampled_from(["sends", "deliveries"]),
        st.integers(min_value=0, max_value=30),  # round index
        st.lists(trace_batches, max_size=5),
    ),
)


def apply_trace_ops(trace: Trace, ops) -> list[TraceEvent]:
    """Drive ``trace`` through a recording script; return the reference model.

    The reference is what the pre-columnar backend stored: one
    :class:`TraceEvent` dataclass per recorded event, in order.
    """

    reference: list[TraceEvent] = []
    for op in ops:
        if op[0] == "record":
            trace.record(op[1])
            reference.append(op[1])
        elif op[0] == "record_event":
            event = op[1]
            trace.record_event(
                event.kind,
                event.round_index,
                node_id=event.node_id,
                peer_id=event.peer_id,
                payload=event.payload,
                detail=event.detail,
            )
            reference.append(event)
        else:
            _, round_index, batches = op
            if op[0] == "sends":
                trace.record_sends_columnar(round_index, batches)
                kind, node_of, peer_of = (
                    EventKind.MESSAGE_SENT,
                    lambda sender, d: sender,
                    lambda sender, d: d,
                )
            else:
                trace.record_deliveries_columnar(round_index, batches)
                kind, node_of, peer_of = (
                    EventKind.MESSAGE_DELIVERED,
                    lambda sender, d: d,
                    lambda sender, d: sender,
                )
            reference.extend(
                TraceEvent(
                    kind,
                    round_index,
                    node_of(sender, d),
                    peer_of(sender, d),
                    payload,
                )
                for sender, payload, dests in batches
                for d in dests
            )
    return reference


def reference_kind_counts(events: list[TraceEvent]) -> dict[str, int]:
    """Events per kind value, in enum member order, kinds with none left out."""

    counts = {kind.value: sum(e.kind is kind for e in events) for kind in EventKind}
    return {value: count for value, count in counts.items() if count}


@COMMON
@given(ops=st.lists(trace_ops, max_size=12))
def test_columnar_trace_round_trips_against_object_model(ops):
    """Every query helper agrees with a list-of-dataclass reference model."""

    trace = Trace()
    reference = apply_trace_ops(trace, ops)

    assert len(trace) == len(reference)
    assert list(trace) == reference
    assert trace.events == reference
    for kind in EventKind:
        assert trace.of_kind(kind) == [e for e in reference if e.kind == kind]
        want_first = next((e for e in reference if e.kind == kind), None)
        assert trace.first(kind) == want_first
    for node_id in {e.node_id for e in reference}:
        assert trace.for_node(node_id) == [
            e for e in reference if e.node_id == node_id
        ]
    for round_index in {e.round_index for e in reference}:
        assert trace.in_round(round_index) == [
            e for e in reference if e.round_index == round_index
        ]
    predicate = lambda e: e.round_index % 2 == 0 and e.payload is not None  # noqa: E731
    assert trace.where(predicate) == [e for e in reference if predicate(e)]
    assert trace.decisions() == [
        e for e in reference if e.kind == EventKind.NODE_DECIDED
    ]
    assert trace.kind_counts() == reference_kind_counts(reference)


@COMMON
@given(ops=st.lists(trace_ops, max_size=8))
def test_disabled_trace_ignores_every_recording_path(ops):
    trace = Trace(enabled=False)
    apply_trace_ops(trace, ops)
    assert len(trace) == 0
    assert list(trace) == []


class _BoundedSink:
    """A spill sink that keeps sealed segments and the largest live tail."""

    def __init__(self) -> None:
        self.trace: Trace | None = None
        self.segments: list[tuple[dict, dict[str, bytes]]] = []
        self.peak_live = 0

    def write(self, index: int, footer: dict, blobs: dict[str, bytes]) -> None:
        assert index == len(self.segments)
        # Called before the sealed events leave the columns: the tail at
        # its largest.
        self.peak_live = max(self.peak_live, self.trace.live_events)
        self.segments.append((footer, blobs))

    def load(self, index: int) -> Trace:
        return Trace.from_segment(self.segments[index][1])


@settings(COMMON, max_examples=100)
@given(
    ops=st.lists(trace_ops, max_size=12),
    segment_events=st.integers(min_value=1, max_value=7),
)
def test_spilling_trace_seals_export_segments_and_bounds_its_tail(
    ops, segment_events
):
    """Round batches spill exactly what ``export_segments`` would cut.

    Every sealed segment equals the in-memory trace's segment, footer and
    blobs, and the live tail never holds more than ``segment_events - 1``
    events plus the fan-out that filled it.
    """

    sink = _BoundedSink()
    spilling = Trace(spill_to=sink, segment_events=segment_events)
    sink.trace = spilling
    reference = apply_trace_ops(spilling, ops)
    in_memory = Trace()
    apply_trace_ops(in_memory, ops)

    exported = in_memory.export_segments(max_events=segment_events)
    sealed = len(reference) // segment_events
    assert sink.segments == exported[:sealed]
    for index, (footer, _) in enumerate(exported):
        events = reference[index * segment_events : (index + 1) * segment_events]
        assert footer["events"] == len(events)
        assert footer["kind_counts"] == reference_kind_counts(events)
    assert spilling.live_events == len(reference) - sealed * segment_events
    assert list(spilling) == reference
    assert len(spilling) == len(reference)
    assert spilling.kind_counts() == in_memory.kind_counts()
    fanouts = [
        len(dests)
        for op in ops
        if op[0] in ("sends", "deliveries")
        for _, _, dests in op[2]
    ]
    largest_fanout = max([1, *fanouts])
    assert sink.peak_live <= segment_events - 1 + largest_fanout
