#!/usr/bin/env python3
"""Agreeing on many configuration keys at once with parallel consensus.

A database cluster that scales elastically cannot bake the cluster size or
a fault bound into its configuration-agreement protocol.  This example uses
ParallelConsensus (Algorithm 5) to agree on a whole configuration map in
one shot — every key is its own consensus instance, all running in
parallel — while a Byzantine member equivocates and also injects consensus
traffic for keys nobody proposed.

The scenario is declared through ``repro.api``: the configuration snapshot
travels as the ``pairs`` protocol parameter, so the identical agreement run
can be replayed from the spec's JSON form alone.

Run with::

    python examples/cluster_membership_consensus.py
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.analysis.properties import agreement, holds, termination
from repro.api import ScenarioSpec, run_scenario


def main() -> None:
    # Every correct member proposes the same configuration snapshot (e.g.
    # produced by a deterministic reconciliation step).
    proposed_config = {
        "replication_factor": 3,
        "read_quorum": 2,
        "write_quorum": 2,
        "compaction": "leveled",
        "max_connections": 512,
    }

    n, f = 10, 3
    outcome = run_scenario(
        ScenarioSpec(
            protocol="parallel-consensus",
            n=n,
            f=f,
            adversary="consensus-split-vote",
            params={"pairs": proposed_config},
            max_rounds=60,
            seed=3,
        )
    )

    correct = outcome.system.correct_ids
    outputs = outcome.outputs()
    reference = outputs[correct[0]]
    rows = [
        {"key": key, "agreed value": value, "matches proposal": proposed_config[key] == value}
        for key, value in sorted(reference.items())
    ]
    print(f"cluster of {n} members, {f} Byzantine, "
          f"{len(proposed_config)} configuration keys agreed in parallel\n")
    print(render_table(rows, title="agreed configuration"))
    identical = holds(termination(outputs), agreement(outputs))
    print(f"\nall correct members hold the identical configuration: {identical}")
    print(f"decided within {outcome.result.metrics.latest_decision_round()} rounds, "
          f"{outcome.messages} messages total")


if __name__ == "__main__":
    main()
