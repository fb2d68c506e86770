#!/usr/bin/env python3
"""A toy permissionless ledger built on the dynamic total-ordering protocol.

The paper's motivation is networks — such as Nakamoto-style blockchains —
whose participant set changes over time and is never known exactly.  This
example runs Algorithm 6 (total ordering of events in a dynamic network)
through the declarative ``repro.api`` layer:

* five genesis replicas and one Byzantine node start the system;
* clients submit "transactions" (events) through their local replica every
  round;
* the churn options generate a random-but-reproducible schedule of
  replicas joining via the ``present``/``ack`` handshake and genesis
  replicas announcing ``absent`` and leaving — always preserving n > 3f;
* at the end, every correct replica holds the same totally ordered ledger
  (chain-prefix), and the ledger keeps growing (chain-growth).

Run with::

    python examples/permissionless_ledger.py
"""

from __future__ import annotations

from repro.analysis.properties import chain_prefix, holds
from repro.api import ScenarioSpec, run_scenario


def main() -> None:
    rounds = 60
    outcome = run_scenario(
        ScenarioSpec(
            protocol="total-order",
            n=6,                       # five genesis replicas + one Byzantine
            f=1,
            adversary="random-noise",
            churn={
                "rounds": rounds,
                "join_rate": 0.10,     # new replicas appear via present/ack
                "leave_rate": 0.05,    # genesis replicas wind down via absent
            },
            seed=7,
        )
    )

    schedule = outcome.system.params["schedule"]
    network = outcome.network
    genesis = outcome.system.correct_ids
    joins = [e for e in schedule.events if e.kind == "join"]
    leaves = [e for e in schedule.events if e.kind == "leave"]

    departed = {e.node_id for e in leaves}
    stayed = [node for node in genesis if node not in departed]
    chains = {node: network.process(node).chain for node in stayed}
    reference = max(chains.values(), key=len)

    print(f"ran {rounds} rounds with {len(joins)} joins and {len(leaves)} leaves "
          f"(schedule generated from the scenario seed)\n")
    print("ledger prefix (first 12 ordered transactions):")
    for entry in reference[:12]:
        print(f"  round {entry.instance_round:>3}  reporter {entry.reporter:>8}  {entry.event}")
    print(f"  ... {len(reference)} ordered transactions in total\n")

    lengths = {node: len(chain) for node, chain in chains.items()}
    print(f"ledger lengths per surviving genesis replica: {lengths}")
    print(f"chain-prefix property holds                 : "
          f"{holds(chain_prefix(list(chains.values())))}")
    if joins:
        joiner = network.process(joins[0].node_id)
        print(f"first joiner caught up                      : joined={joiner.joined}, "
              f"ledger length={len(joiner.chain)}")


if __name__ == "__main__":
    main()
