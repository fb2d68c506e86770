"""Metamorphic engine-equivalence suite.

The round engine runs on one of two kernels (``vector`` and ``queue`` —
see :mod:`repro.sim.network`).  For every registered protocol, over a
grid of seeds, both must produce **bit-identical** synchronous
executions — the same trace events in the same order, the same metrics
(including per-node counter *insertion order*), the same outputs, the
same stop reason.  A divergence anywhere means the staged columnar path
changed observable semantics, not just speed.  Delayed delivery, which
only ``queue`` can drive, is pinned by the run digests of
``tests/fixtures/delayed_digests.json`` (recorded on both ``queue`` and
the since-retired ``legacy`` reference kernel) and by the delayed
fixtures of ``tests/test_trace_golden.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.api import ScenarioSpec, available_protocols
from repro.api.sweep import run_scenario
from repro.sim import ConfigurationError, SynchronousNetwork
from repro.sim.node import NullProcess

from make_delayed_digests import FIXTURE_PATH, digest, fingerprint, spec_key

with FIXTURE_PATH.open() as handle:
    DELAYED_DIGESTS = json.load(handle)["digests"]

SEEDS = (0, 1, 2)

#: The concrete kernels ``engine=`` accepts besides ``auto``.
KERNELS = ("vector", "queue")

#: One representative (deliberately adversarial) scenario per registered
#: protocol.  Churn-capable protocols get churn so the vector kernel's
#: delivery-time membership filtering is exercised, not just the steady
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


def test_scenario_table_covers_every_registered_protocol():
    assert sorted(SCENARIOS) == available_protocols()


@pytest.mark.parametrize("protocol", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS)
def test_vector_fast_queue_and_legacy_are_trace_identical(protocol, seed):
    # ``vector`` absorbed the ``fast`` kernel and ``queue`` took over
    # ``legacy``'s reference role, so the two survivors cover all four.
    spec = ScenarioSpec(protocol=protocol, seed=seed, trace=True, **SCENARIOS[protocol])
    prints = {
        engine: fingerprint(run_scenario(spec, engine=engine)) for engine in KERNELS
    }
    assert prints["vector"] == prints["queue"]


def test_total_order_churn_n50_is_trace_identical_across_kernels():
    """Total-order at n=50 with churn, on both kernels.

    At this size batching, quiescence (first transition ≈ round 20:
    decide + linger) and churn-time delivery filtering are all exercised
    for real.  Churn also forces the vector kernel through its
    unicast/non-shared object-inbox rounds mid-run.
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
    prints = {
        engine: fingerprint(run_scenario(spec, engine=engine)) for engine in KERNELS
    }
    assert prints["vector"] == prints["queue"]


@pytest.mark.parametrize("protocol", ("consensus", "total-order"))
def test_trace_with_payload_accounting_is_kernel_identical(protocol):
    """``trace=True`` + ``enable_payload_accounting()`` on both kernels.

    The columnar trace store and the byte accounting hook into the same
    send/delivery paths of each kernel; running them *together* pins that
    neither feature perturbs the other's recording order or totals — the
    full fingerprint (trace events, payload_bytes per round, peak payload)
    must stay bit-identical across kernels.
    """

    from repro.api.registry import REGISTRY
    from repro.api.sweep import ScenarioOutcome, resolve_stop

    spec = ScenarioSpec(protocol=protocol, seed=2, trace=True, **SCENARIOS[protocol])
    info = REGISTRY.info(spec.protocol)
    prints = {}
    for engine in KERNELS:
        system = REGISTRY.build(spec, engine=engine)
        system.network.enable_payload_accounting()
        result = system.network.run(
            max_rounds=info.default_max_rounds(spec),
            stop_when=resolve_stop(spec, info),
        )
        outcome = ScenarioOutcome(spec=spec, system=system, result=result)
        assert len(result.trace) > 0
        assert result.metrics.total_payload_bytes > 0
        prints[engine] = fingerprint(outcome)
    assert prints["vector"] == prints["queue"]


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
    """``queue`` reproduces the run digests both it and ``legacy`` recorded."""

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
    assert digest(run_scenario(spec, engine="queue")) == DELAYED_DIGESTS[spec_key(spec)]


def test_auto_resolves_to_vector_only_for_synchronous_delay():
    sync = SynchronousNetwork([NullProcess(1)])
    assert sync.resolved_engine() == "vector"
    assert sync.tally_backend() == "numpy"
    from repro.sim import UniformRandomDelay

    delayed = SynchronousNetwork([NullProcess(1)], delay_model=UniformRandomDelay())
    assert delayed.resolved_engine() == "queue"
    assert delayed.tally_backend() == "scalar"


@pytest.mark.parametrize("engine", ("fast", "vector"))
def test_synchronous_only_engines_reject_delayed_delivery(engine, current_kernel):
    from repro.sim import UniformRandomDelay

    engine = current_kernel(
        engine, lambda name: SynchronousNetwork([NullProcess(1)], engine=name)
    )
    with pytest.raises(ConfigurationError):
        SynchronousNetwork(
            [NullProcess(1)], delay_model=UniformRandomDelay(), engine=engine
        )
    spec = ScenarioSpec(
        protocol="consensus", n=4, f=1, delay="uniform-random", seed=0
    )
    with pytest.raises(ConfigurationError):
        run_scenario(spec, engine=engine)


def test_engine_cannot_change_mid_run():
    net = SynchronousNetwork([NullProcess(1)], engine="vector")
    net.step_round()
    with pytest.raises(ConfigurationError):
        net.set_engine("queue")
    net.set_engine(net.engine)  # a no-op reassignment stays allowed


def test_unknown_engine_is_rejected_eagerly_with_choices():
    from repro.sim.errors import UnknownEngineError
    from repro.sim.network import ENGINE_CHOICES

    assert ENGINE_CHOICES == ("auto", *KERNELS)
    # Still a ConfigurationError (backwards compatible) *and* a plain
    # ValueError, raised at construction — never at mid-run resolution —
    # with a message listing every known engine.
    with pytest.raises(ConfigurationError):
        SynchronousNetwork([NullProcess(1)], engine="warp")
    with pytest.raises(ValueError) as excinfo:
        SynchronousNetwork([NullProcess(1)], engine="warp")
    message = str(excinfo.value)
    assert "warp" in message
    for choice in ENGINE_CHOICES:
        assert choice in message
    assert excinfo.value.choices == ENGINE_CHOICES
    net = SynchronousNetwork([NullProcess(1)])
    with pytest.raises(UnknownEngineError):
        net.set_engine("warp")


@pytest.mark.parametrize("retired,replacement", (("fast", "vector"), ("legacy", "queue")))
def test_retired_engine_names_point_at_their_replacement(tmp_path, retired, replacement):
    """Every entry point rejects a retired kernel name, naming its successor."""

    import json
    import threading
    import urllib.error
    import urllib.request

    from repro.api import SweepRunner, SweepSpec
    from repro.search import replay_run
    from repro.sim.errors import UnknownEngineError
    from repro.store import RunStore, record_from_outcome
    from repro.store.service import create_server

    spec = ScenarioSpec(protocol="consensus", n=4, f=1, seed=0)
    calls = (
        lambda: SynchronousNetwork([NullProcess(1)], engine=retired),
        lambda: run_scenario(spec, engine=retired),
        lambda: SweepRunner(jobs=2, engine=retired),
    )
    for call in calls:
        with pytest.raises(UnknownEngineError) as excinfo:
            call()
        assert excinfo.value.replacement == replacement
        assert repr(replacement) in str(excinfo.value)

    # A run record stored by older code under the retired name.
    with RunStore(str(tmp_path / "runs.db")) as store:
        record = record_from_outcome(
            run_scenario(spec), engine=retired, code_version="old"
        )
        store.put_run(record)
        with pytest.raises(UnknownEngineError, match=repr(replacement)):
            replay_run(store, record.run_key)

    server = create_server(tmp_path / "served.db", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        body = {"sweep": {"protocol": "consensus", "n": 4}, "engine": retired}
        request = urllib.request.Request(
            f"http://{host}:{port}/sweeps",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert repr(replacement) in json.load(excinfo.value)["error"]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_sweep_runner_engine_is_result_identical():
    from repro.api import SweepRunner, SweepSpec

    sweep = SweepSpec(
        protocol="consensus",
        grid={"n": (4, 7), "adversary": ("silent", "consensus-split-vote")},
        repetitions=2,
        base_seed=11,
    )
    by_engine = {
        engine: SweepRunner(jobs=1, engine=engine).run(sweep)
        for engine in (None, *KERNELS)
    }
    baseline = by_engine[None]
    assert all(rows == baseline for rows in by_engine.values())
