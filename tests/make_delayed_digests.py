"""Regenerate the delayed-delivery run digests.

Delayed delivery (every delay model but ``synchronous``) takes the
network's per-destination path.  ``tests/fixtures/delayed_digests.json``
pins a seed grid of such runs by the SHA-256 of their :func:`fingerprint`
— every trace event in order, the metrics with per-node counter order,
the decisions, outputs, round count and stop reason.  The digests were
recorded by two independent kernels that agreed on them; the tests in
``tests/test_engine_equivalence.py`` and ``tests/test_delay_models.py``
hold the network to them.

This module also provides :func:`per_destination_twin`, which sends
synchronous runs down the same per-destination path so the equivalence
tests can compare it with the shared columnar path.

Usage::

    PYTHONPATH=src python tests/make_delayed_digests.py

Regenerate only when the *intended* observable behaviour of a delayed run
changes.  Fingerprints are ``repr``-encoded (frozen dataclasses, enums and
scalars, so the encoding is the same in every process).
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import ScenarioSpec  # noqa: E402
from repro.api.sweep import run_scenario  # noqa: E402
from repro.sim.delays import SynchronousDelay  # noqa: E402

FIXTURE_PATH = Path(__file__).resolve().parent / "fixtures" / "delayed_digests.json"

#: ``(spec options, seeds)`` per delayed scenario family.
GRID: tuple[tuple[dict, tuple[int, ...]], ...] = tuple(
    (
        dict(protocol="consensus", n=7, f=2, adversary="consensus-split-vote",
             max_rounds=25, delay=delay, delay_params=params),
        (0, 1, 2),
    )
    for delay, params in (
        ("uniform-random", {"max_delay": 3}),
        ("bounded-unknown", {"sizes": [4, 3], "delta": 6}),
        ("partition", {"sizes": [4, 3], "heal_round": 5}),
    )
) + tuple(
    (
        dict(protocol="consensus", n=5, f=1, adversary="consensus-split-vote",
             max_rounds=40, delay=delay, delay_params=params),
        (0, 1),
    )
    for delay, params in (
        ("heavy-tail", {"alpha": 1.2, "scale": 1.0, "max_delay": 8}),
        ("jittered", {"jitter_probability": 0.3, "max_extra": 2}),
    )
)


def fingerprint(outcome):
    """Everything observable about a finished run, order included."""

    result = outcome.result
    events = tuple(
        (e.kind, e.round_index, e.node_id, e.peer_id, e.payload, e.detail)
        for e in result.trace
    )
    metrics = result.metrics
    return (
        events,
        metrics.as_dict(),
        tuple(metrics.per_node_sent.items()),
        tuple(metrics.per_node_delivered.items()),
        tuple((d.node_id, d.round_index, d.value) for d in metrics.decisions),
        tuple(sorted((i, p.output, p.halted) for i, p in result.processes.items())),
        result.rounds_executed,
        result.stop_reason,
    )


@contextmanager
def per_destination_twin():
    """Within the block, synchronous runs take the per-destination path.

    Patches :attr:`SynchronousDelay.synchronous` to ``False``: the network
    then asks the delay model for every destination's delivery round (still
    ``r + 1``, with no rng draws) and hands each recipient its own inbox,
    where the synchronous path shares one among recipients with equal rows.
    Timing and rng draws are unchanged, so the run must be bit-identical.  A
    context manager rather than a fixture, because Hypothesis rejects
    function-scoped fixtures.
    """

    with mock.patch.object(SynchronousDelay, "synchronous", False):
        yield


def kernel_path(kernel: str):
    """The delivery path a historical kernel-name test case now runs.

    ``vector`` and ``fast`` cases run the shared path; ``queue`` and
    ``legacy`` cases run the :func:`per_destination_twin`.
    """

    return per_destination_twin() if kernel in ("queue", "legacy") else nullcontext()


def digest(outcome) -> str:
    return hashlib.sha256(repr(fingerprint(outcome)).encode()).hexdigest()


def spec_key(spec: ScenarioSpec) -> str:
    """The canonical JSON of a spec, which keys the fixture's digests."""

    return json.dumps(spec.to_dict(), sort_keys=True)


def generate() -> dict:
    digests = {}
    for options, seeds in GRID:
        for seed in seeds:
            spec = ScenarioSpec(seed=seed, trace=True, **options)
            digests[spec_key(spec)] = digest(run_scenario(spec))
    return {
        "description": (
            "SHA-256 digests of the full fingerprint (trace, metrics, "
            "decisions, outputs, rounds, stop reason) of delayed-delivery "
            "runs on the queue kernel, keyed by canonical spec JSON."
        ),
        "regenerate": "PYTHONPATH=src python tests/make_delayed_digests.py",
        "digests": digests,
    }


def main() -> int:
    report = generate()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {FIXTURE_PATH} ({len(report['digests'])} digests)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
