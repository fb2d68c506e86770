"""Metamorphic delivery-path equivalence suite.

The network files messages in flight as batches keyed by delivery round
and delivers a round one of two ways (see :mod:`repro.sim.network`): a
broadcast-only synchronous round shares one inbox object among all
recipients, and every other round hands each recipient its own inbox.
For every registered protocol, over a grid of seeds, a synchronous run
must be **bit-identical** to its per-destination twin
(:func:`make_delayed_digests.per_destination_twin`) — the same trace
events in the same order, the same metrics (including per-node counter
*insertion order*), the same outputs, the same stop reason.  A divergence
anywhere means the shared path changed observable semantics, not just
speed.  Delayed delivery, which always takes the per-destination
path, is pinned by the run digests of
``tests/fixtures/delayed_digests.json`` (recorded by two independent
kernels) and by the delayed fixtures of ``tests/test_trace_golden.py``.

Several test ids keep the names of retired kernels: ``vector`` and
``fast`` stand for the shared path, ``queue`` and ``legacy`` for the
per-destination twin.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from contextlib import nullcontext
from unittest import mock

import pytest

from repro.api import ScenarioSpec, SweepRunner, SweepSpec, available_protocols
from repro.api.registry import REGISTRY, build_system
from repro.api.sweep import run_scenario, run_sweep
from repro.sim import (
    Broadcast,
    FixedScheduleDelay,
    Process,
    SynchronousNetwork,
    UniformRandomDelay,
)
from repro.sim.node import NullProcess
from repro.store import ResumableSweep, RunStore, record_from_outcome, run_key
from repro.store.service import ScenarioService, create_server

from make_delayed_digests import (
    FIXTURE_PATH,
    digest,
    fingerprint,
    per_destination_twin,
    spec_key,
)

with FIXTURE_PATH.open() as handle:
    DELAYED_DIGESTS = json.load(handle)["digests"]

SEEDS = (0, 1, 2)

#: One representative (deliberately adversarial) scenario per registered
#: protocol.  Churn-capable protocols get churn so delivery-time
#: membership filtering is exercised on both paths, not just the steady
#: state.
SCENARIOS = {
    "reliable-broadcast": dict(
        n=7, f=2, adversary="rb-equivocating-sender", params={"byzantine_sender": True}
    ),
    "rotor-coordinator": dict(n=5, f=1, adversary="rotor-split-echo"),
    "consensus": dict(n=7, f=2, adversary="consensus-split-vote"),
    "approximate-agreement": dict(n=7, f=2, adversary="approx-outlier"),
    "iterated-approximate-agreement": dict(
        n=7, f=2, adversary="approx-outlier", churn={"join_fraction": 0.5, "pool": 4}
    ),
    "parallel-consensus": dict(n=7, f=2, adversary="random-noise"),
    "total-order": dict(
        n=6, f=1, adversary="equivocate-value",
        churn={"rounds": 20, "join_rate": 0.1, "leave_rate": 0.05},
    ),
    "srikanth-toueg-broadcast": dict(n=7, f=2, adversary="rb-false-echo"),
    "known-f-consensus": dict(n=7, f=2, adversary="equivocate-value"),
    "dolev-approx": dict(n=7, f=1, adversary="approx-outlier"),
}


def shared_and_twin(spec: ScenarioSpec) -> tuple:
    """Fingerprints of ``spec`` on the shared path and on its twin."""

    shared = fingerprint(run_scenario(spec))
    with per_destination_twin():
        twin = fingerprint(run_scenario(spec))
    return shared, twin


def inbox_objects_per_round(spec: ScenarioSpec) -> tuple:
    """Run ``spec``; return the outcome and, for every round that delivered
    anything, ``(distinct inbox objects, recipients)``."""

    rounds = []
    step_processes = SynchronousNetwork._step_processes

    def spy(network, round_index, round_metrics, inboxes):
        if inboxes:
            distinct = len({id(inbox) for inbox in inboxes.values()})
            rounds.append((distinct, len(inboxes)))
        return step_processes(network, round_index, round_metrics, inboxes)

    with mock.patch.object(SynchronousNetwork, "_step_processes", spy):
        outcome = run_scenario(spec)
    return outcome, rounds


def test_scenario_table_covers_every_registered_protocol():
    assert sorted(SCENARIOS) == available_protocols()


@pytest.mark.parametrize("protocol", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS)
def test_vector_fast_queue_and_legacy_are_trace_identical(protocol, seed):
    spec = ScenarioSpec(protocol=protocol, seed=seed, trace=True, **SCENARIOS[protocol])
    shared, twin = shared_and_twin(spec)
    assert shared == twin


def test_shared_and_twin_comparison_is_not_vacuous():
    """The twin really takes the other path, and still matches.

    On a broadcast-only scenario the shared run hands every recipient of a
    round one inbox object; its per-destination twin hands out one per
    recipient.
    """

    spec = ScenarioSpec(
        protocol="reliable-broadcast", n=7, f=2, adversary="silent", seed=0, trace=True
    )
    shared, shared_rounds = inbox_objects_per_round(spec)
    with per_destination_twin():
        twin, twin_rounds = inbox_objects_per_round(spec)
    assert shared_rounds and all(distinct == 1 for distinct, _ in shared_rounds)
    assert any(recipients > 1 for _, recipients in shared_rounds)
    assert [r for _, r in twin_rounds] == [r for _, r in shared_rounds]
    assert all(distinct == recipients for distinct, recipients in twin_rounds)
    assert fingerprint(shared) == fingerprint(twin)


def test_total_order_churn_n50_is_trace_identical_across_kernels():
    """Total-order at n=50 with churn, on both delivery paths.

    At this size batching, quiescence (first transition ≈ round 20:
    decide + linger) and churn-time delivery filtering are all exercised
    for real.  Churn also forces the shared path through unicast rounds
    with per-destination object inboxes mid-run.
    """

    spec = ScenarioSpec(
        protocol="total-order",
        n=50,
        f=12,
        adversary="equivocate-value",
        seed=1,
        trace=True,
        churn={"rounds": 24, "join_rate": 0.2, "leave_rate": 0.1},
    )
    shared, twin = shared_and_twin(spec)
    assert shared == twin


@pytest.mark.parametrize("protocol", ("consensus", "total-order"))
def test_trace_with_payload_accounting_is_kernel_identical(protocol):
    """``trace=True`` + payload accounting on both delivery paths.

    The columnar trace store and the byte accounting hook into the same
    send/delivery code; running them *together* pins that neither feature
    perturbs the other's recording order or totals — the full fingerprint
    (trace events, payload_bytes per round, peak payload) must stay
    bit-identical between the shared path and its twin.
    """

    spec = ScenarioSpec(protocol=protocol, seed=2, trace=True, **SCENARIOS[protocol])
    prints = []
    for path in (nullcontext(), per_destination_twin()):
        with path:
            outcome = run_scenario(spec, payload_accounting=True)
        assert len(outcome.result.trace) > 0
        assert outcome.result.metrics.total_payload_bytes > 0
        prints.append(fingerprint(outcome))
    assert prints[0] == prints[1]


@pytest.mark.parametrize(
    "delay,delay_params",
    [
        ("uniform-random", {"max_delay": 3}),
        ("bounded-unknown", {"sizes": [4, 3], "delta": 6}),
        ("partition", {"sizes": [4, 3], "heal_round": 5}),
    ],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_queue_matches_legacy_under_delay_models(delay, delay_params, seed):
    """Delayed runs reproduce the digests two independent kernels recorded."""

    spec = ScenarioSpec(
        protocol="consensus",
        n=7,
        f=2,
        adversary="consensus-split-vote",
        seed=seed,
        trace=True,
        delay=delay,
        delay_params=delay_params,
        max_rounds=25,
    )
    assert digest(run_scenario(spec)) == DELAYED_DIGESTS[spec_key(spec)]


def test_auto_resolves_to_vector_only_for_synchronous_delay():
    """Every delay model gets the same tallies: there is no backend to report."""

    for network in (
        SynchronousNetwork([NullProcess(1)]),
        SynchronousNetwork([NullProcess(1)], delay_model=UniformRandomDelay()),
    ):
        assert not hasattr(network, "tally_backend")


#: One delayed model per retired synchronous-only kernel name.
DELAYED_BY_KERNEL = {
    "fast": ("uniform-random", {"max_delay": 3}),
    "vector": ("partition", {"sizes": [2, 2], "heal_round": 4}),
}


@pytest.mark.parametrize("engine", ("fast", "vector"))
def test_synchronous_only_engines_reject_delayed_delivery(engine):
    """Delayed delivery never shares an inbox object between recipients."""

    delay, delay_params = DELAYED_BY_KERNEL[engine]
    spec = ScenarioSpec(
        protocol="consensus", n=4, f=1, delay=delay, delay_params=delay_params, seed=0
    )
    _outcome, rounds = inbox_objects_per_round(spec)
    assert any(recipients > 1 for _, recipients in rounds)
    assert all(distinct == recipients for distinct, recipients in rounds)


class Chatter(Process):
    """Broadcasts every round and records every inbox it gets."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.inboxes = []

    def step(self, view):
        self.inboxes.append(view.inbox)
        return [Broadcast(("tick", view.round_index))]


def test_engine_cannot_change_mid_run():
    """The delay model alone picks the delivery path, every round of a run."""

    shared = SynchronousNetwork([Chatter(1), Chatter(2)])
    twin = SynchronousNetwork([Chatter(1), Chatter(2)], delay_model=FixedScheduleDelay())
    for net in (shared, twin):
        assert not hasattr(net, "set_engine")
        for _ in range(4):
            net.step_round()
    # Round 1 delivers nothing; rounds 2-4 deliver the broadcasts, to both
    # Chatters through one inbox object on the shared path and through one
    # each on the twin.
    for net, shared_round in ((shared, True), (twin, False)):
        first, second = net.process(1).inboxes, net.process(2).inboxes
        assert len(first) == len(second) == 4
        for mine, theirs in zip(first[1:], second[1:]):
            assert len(mine) == len(theirs) == 2
            assert (mine is theirs) is shared_round


def test_unknown_engine_is_rejected_eagerly_with_choices():
    """The engine vocabulary is gone: there is nothing left to choose."""

    import repro.sim
    import repro.sim.errors
    import repro.sim.network

    for name in ("ENGINE_CHOICES", "validate_engine", "_RETIRED_ENGINES"):
        assert not hasattr(repro.sim.network, name)
    assert not hasattr(repro.sim.errors, "UnknownEngineError")
    assert not hasattr(repro.sim, "Envelope")
    net = SynchronousNetwork([NullProcess(1)])
    for name in ("engine", "set_engine", "resolved_engine"):
        assert not hasattr(net, name)
    with pytest.raises(TypeError, match="engine"):
        SynchronousNetwork([NullProcess(1)], engine="warp")


@pytest.mark.parametrize("retired,replacement", (("fast", "vector"), ("legacy", "queue")))
def test_retired_engine_names_point_at_their_replacement(tmp_path, retired, replacement):
    """No entry point takes an engine any more, retired or not.

    Every Python entry point that once accepted ``engine=`` raises
    ``TypeError``, and the service answers a sweep request or a run query
    that still names an engine with a 400.
    """

    spec = ScenarioSpec(protocol="consensus", n=4, f=1, seed=0)
    outcome = run_scenario(spec)
    with RunStore(str(tmp_path / "runs.db")) as store:
        calls = (
            lambda name: SynchronousNetwork([NullProcess(1)], engine=name),
            lambda name: REGISTRY.build(spec, engine=name),
            lambda name: build_system(spec, engine=name),
            lambda name: run_scenario(spec, engine=name),
            lambda name: SweepRunner(jobs=1, engine=name),
            lambda name: run_sweep(SweepSpec(protocol="consensus", n=4), engine=name),
            lambda name: ResumableSweep(store, engine=name),
            lambda name: record_from_outcome(outcome, engine=name),
            lambda name: run_key(spec, engine=name),
            lambda name: store.query(engine=name),
            lambda name: ScenarioService(tmp_path / "served.db", engine=name),
            lambda name: create_server(tmp_path / "served.db", port=0, engine=name),
        )
        for call in calls:
            for name in (retired, replacement, "auto"):
                with pytest.raises(TypeError, match="engine"):
                    call(name)

    server = create_server(tmp_path / "served.db", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        body = {"sweep": {"protocol": "consensus", "n": 4}, "engine": replacement}
        request = urllib.request.Request(
            f"{base}/sweeps",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert "engine" in json.load(excinfo.value)["error"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/runs?engine={retired}", timeout=30)
        assert excinfo.value.code == 400
        assert "engine" in json.load(excinfo.value)["error"]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_sweep_runner_engine_is_result_identical():
    sweep = SweepSpec(
        protocol="consensus",
        grid={"n": (4, 7), "adversary": ("silent", "consensus-split-vote")},
        repetitions=2,
        base_seed=11,
    )
    rows = SweepRunner(jobs=1).run(sweep)
    with per_destination_twin():
        assert SweepRunner(jobs=1).run(sweep) == rows
