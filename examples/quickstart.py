#!/usr/bin/env python3
"""Quickstart: Byzantine consensus without knowing n or f.

Declares a 10-node scenario in which 3 nodes are Byzantine (the maximum
the n > 3f bound allows), runs the id-only consensus algorithm (Algorithm
3 of the paper) against a vote-splitting adversary through the unified
``repro.api`` layer, and prints what every correct node decided, how many
rounds it took and how many messages were exchanged.

The whole experiment is one declarative :class:`repro.api.ScenarioSpec` —
the same value round-trips through JSON, ships to worker processes in
parallel sweeps, and reproduces bit-identically from its seed.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import json

from repro.analysis import render_table
from repro.analysis.properties import agreement, holds, termination, validity
from repro.api import ScenarioSpec, run_scenario


def main() -> None:
    spec = ScenarioSpec(
        protocol="consensus",
        n=10,
        f=3,
        input_params={"ones_fraction": 0.5},  # half the correct nodes start with 1
        adversary="consensus-split-vote",     # the adversary equivocates on every message
        seed=2024,
        max_rounds=100,
    )
    print("scenario:", json.dumps(spec.to_dict(), sort_keys=True))

    outcome = run_scenario(spec)
    inputs = outcome.system.params["inputs"]
    print(f"\nsystem: n = {spec.n} nodes, f = {spec.f} Byzantine "
          f"(ids are sparse, and no node knows n or f)")
    print(f"correct inputs: {inputs}")

    outputs = outcome.outputs()
    rows = [
        {
            "node": node,
            "input": inputs[node],
            "decision": outputs[node],
            "decided in round": outcome.result.metrics.decision_round(node),
        }
        for node in outcome.system.correct_ids
    ]
    print()
    print(render_table(rows, title="per-node decisions"))
    print()
    print(f"agreement reached : {holds(termination(outputs), agreement(outputs))}")
    print(f"validity satisfied: {holds(validity(outputs, inputs))}")
    print(f"rounds executed   : {outcome.rounds}")
    print(f"messages exchanged: {outcome.messages}")


if __name__ == "__main__":
    main()
