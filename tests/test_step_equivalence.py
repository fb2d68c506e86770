"""Reference properties for the protocol steps and total order's routing.

Each optimisation of the engine step and of the batched-traffic routing
replaced a simpler implementation.  This file keeps each replaced
implementation as the reference of a Hypothesis property:

* the one-pass quorum pick (:func:`repro.core.quorums.pick_supported`)
  against a sort by ``(-count, repr)``;
* the columnar :meth:`Inbox.restricted` against rebuilding the inbox from
  the kept senders' payloads;
* :meth:`Inbox.split`, behind total order's ``_route_instances``, against
  filing every ``(sender, inner payload)`` pair through
  :meth:`Inbox.from_pairs`;
* the coordinator-opinion index of phase round 5 against the linear scan
  of the coordinator's payloads;
* parallel-consensus engines, whose per-identifier state is one shared
  immutable table, against the mutable per-node engine they replaced
  (``pc_reference.ReferenceEngine``);
* rotor cores, consensus processes and parallel-consensus engines
  stepped on shared inboxes, where transitions are shared, against the
  same nodes stepped on private copies, where nothing is shared.  A pinned
  history per input of the rotor and table transitions sets two nodes
  apart in that input alone;
* ``replay``'s one pass over the inbox's payload table against the scan
  that kept each payload's first row;
* Byzantine nodes whose strategy declares ``shared_act``, stepped on
  shared inboxes, where their actions are shared, against the same nodes
  on private copies, with a pinned history per argument of the shared
  step.

``tests/test_shared_transitions.py`` checks that every function applied
on an inbox (:meth:`Inbox.apply`) reads only the inbox and its arguments.

Inbox comparisons check the columns, the :meth:`Inbox.items` order and the
payload-table objects by identity: equal payloads such as ``1``, ``True``
and ``1.0`` compare equal, so only identity shows which instance a table
kept.  A replaying attacker makes senders deliver several batches in one
round, which the golden fixtures never exercise; the last test runs such
a total-order scenario with the reference routing patched in.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.adversary import (
    STRATEGY_FACTORIES,
    AdversaryStrategy,
    ByzantineProcess,
    ReplayStrategy,
    make_strategy,
)
from repro.adversary.base import AdversaryContext, _shared_step
from repro.api import ScenarioSpec, run_scenario
from repro.core.approximate_agreement import ValueMessage
from repro.core import total_order
from repro.core.consensus import ConsensusInput, ConsensusProcess, Prefer, StrongPrefer
from repro.core.parallel_consensus import (
    BOTTOM,
    PCInput,
    PCNoPreference,
    PCNoStrongPreference,
    PCOpinion,
    PCPrefer,
    PCStrongPrefer,
    ParallelConsensusEngine,
    _opinion_index,
)
from repro.core.quorums import (
    best_supported_value,
    meets_one_third,
    meets_two_thirds,
    one_third,
    pick_supported,
    two_thirds,
)
from repro.core.rotor_coordinator import (
    CandidateGossip,
    Opinion,
    RotorCoordinatorCore,
    RotorEcho,
    RotorInit,
)
from repro.core.total_order import PCBatch, _route_instances
from repro.sim.messages import Broadcast, Inbox, Unicast
from repro.sim.network import SystemView
from repro.sim.node import RoundView
from repro.sim.rng import make_rng

from make_delayed_digests import fingerprint
from pc_reference import ReferenceEngine

# ---------------------------------------------------------------------------
# The replaced implementations
# ---------------------------------------------------------------------------


def reference_best(support, nv, *, fraction="two_thirds"):
    """``best_supported_value`` as a filter and a sort."""

    counted = {}
    for value, raw in support.items():
        counted[value] = raw if isinstance(raw, int) else len(tuple(raw))
    check = meets_two_thirds if fraction == "two_thirds" else meets_one_third
    candidates = [(count, value) for value, count in counted.items() if check(count, nv)]
    if not candidates:
        return None
    candidates.sort(key=lambda item: (-item[0], repr(item[1])))
    return candidates[0][1]


def reference_restricted(inbox, allowed):
    """``Inbox.restricted`` as a regroup by sender and a full rebuild."""

    if inbox.senders <= allowed:
        return inbox
    return Inbox({
        sender: payloads
        for sender, payloads in inbox._grouped().items()
        if sender in allowed
    })


def reference_route(inbox):
    """``_route_instances`` as ``(sender, inner payload)`` pairs per instance."""

    buckets = {}
    for sender, payload in inbox.items():
        if type(payload) is PCBatch:
            for instance_round, group in payload.groups:
                bucket = buckets.get(instance_round)
                if bucket is None:
                    buckets[instance_round] = bucket = []
                for inner in group:
                    bucket.append((sender, inner))
    return {
        instance_round: Inbox.from_pairs(pairs)
        for instance_round, pairs in buckets.items()
    }


_MISSING = object()


def reference_opinion(inbox, coordinator, instance):
    """Phase round 5's scan of the coordinator's payloads for one instance."""

    for payload in inbox.payloads_from(coordinator):
        if isinstance(payload, PCOpinion) and payload.instance == instance:
            return payload.value
    return _MISSING


def reference_replay(inbox):
    """``ReplayStrategy.act`` as a scan of the rows that keeps each
    payload's first occurrence."""

    seen = []
    for _, payload in inbox.items():
        if payload not in seen:
            seen.append(payload)
    return [Broadcast(payload) for payload in seen]


def assert_same_inbox(got: Inbox, want: Inbox) -> None:
    got_senders, got_rows, got_table = got.columns()
    want_senders, want_rows, want_table = want.columns()
    assert got_senders == want_senders
    assert got_rows == want_rows
    assert len(got_table) == len(want_table)
    assert all(a is b for a, b in zip(got_table, want_table))
    got_items, want_items = list(got.items()), list(want.items())
    assert got_items == want_items
    assert all(a[1] is b[1] for a, b in zip(got_items, want_items))
    assert got.senders == want.senders


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class SameRepr:
    """Distinct, unequal values that all print as ``#same``, which sorts
    before the ``repr`` of every other drawn value, so on a tie they win
    and only insertion order can tell them apart."""

    def __init__(self, key: int) -> None:
        self.key = key

    def __repr__(self) -> str:
        return "#same"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SameRepr) and self.key == other.key

    def __hash__(self) -> int:
        return hash(("SameRepr", self.key))


pick_values = st.one_of(
    st.builds(SameRepr, st.integers(0, 3)),
    st.integers(-2, 4),
    st.sampled_from(["a", "b", "ab", "", BOTTOM]),
)

@st.composite
def supports(draw):
    values = draw(st.lists(pick_values, max_size=8))
    if draw(st.booleans()):
        # Every value tied on count: the repr and insertion tie-breaks decide.
        return dict.fromkeys(values, draw(st.integers(0, 4)))
    return {value: draw(st.integers(0, 4)) for value in values}


#: Hashable payloads with equal-but-distinct members (``1 == True == 1.0``).
hashable_payloads = st.sampled_from([0, 1, True, 1.0, "x", "y", (1, 2)])

#: Payloads including unhashable ones: every drawn list is a fresh object.
payloads = st.one_of(
    hashable_payloads, st.lists(st.integers(0, 1), min_size=1, max_size=2)
)

#: Few distinct values (``1``, ``True`` and ``1.0`` are one), so senders
#: and coordinators often repeat each other's; lists are unhashable.
few_payloads = st.one_of(
    st.sampled_from([1, True, 1.0, "x"]), st.lists(st.integers(0, 1), max_size=1)
)

sender_ids = st.lists(st.integers(0, 6), unique=True, max_size=5)


@st.composite
def restrictions(draw):
    senders = draw(sender_ids)
    inbox = Inbox({
        sender: draw(st.lists(few_payloads, min_size=1, max_size=5)) for sender in senders
    })
    mode = draw(st.sampled_from(["all", "none", "some"]))
    if mode == "all":
        allowed = frozenset(senders) | draw(st.frozensets(st.integers(7, 9)))
    elif mode == "none" or not senders:
        allowed = frozenset()
    else:
        # Keeping a later sender and dropping an earlier one is what moves
        # table entries: the kept rows' first occurrences set the order.
        allowed = frozenset(s for s in senders if draw(st.booleans()))
    return inbox, allowed


groups = st.lists(
    st.tuples(st.integers(0, 3), st.lists(payloads, max_size=4).map(tuple)),
    max_size=3,
).map(tuple)


@st.composite
def batched_inboxes(draw):
    """Rounds of batched traffic: shared batches, equal copies, several
    batches per sender, empty batches and other payloads."""

    batches = draw(st.lists(groups.map(PCBatch), min_size=1, max_size=4))
    batch = st.sampled_from(batches)
    delivered = st.one_of(
        batch,  # the interned object, shared by every sender that picks it
        batch.map(copy.deepcopy),  # an equal but distinct batch
        st.just(PCBatch(())),
        hashable_payloads,
    )
    senders = draw(sender_ids)
    return Inbox({sender: draw(st.lists(delivered, max_size=4)) for sender in senders})



_A = PCBatch(((1, ("x", "y")), (2, (0,))))
_B = PCBatch(((1, ("y", 1, "x")), (1, (True, "z")), (3, ())))
_C = PCBatch(((0, ([1], 1, [1])),))  # unhashable inner payloads
_D = PCBatch(((0, (True, [1])),))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=300)
@given(support=supports(), nv=st.integers(0, 13))
@example(support={"b": 4, "a": 4, "c": 1}, nv=9)
@example(support={SameRepr(1): 3, SameRepr(0): 3}, nv=8)
@example(support={"a": 0}, nv=0)
def test_pick_matches_the_sorted_reference(support, nv):
    weak, count = pick_supported(support, one_third(nv))
    assert weak is reference_best(support, nv, fraction="one_third")
    assert count == (support[weak] if weak is not None else 0)
    # The 2nv/3 pick is the nv/3 winner when its count gets there.
    strong = reference_best(support, nv, fraction="two_thirds")
    assert (weak if count >= two_thirds(nv) else None) is strong
    assert pick_supported(support, two_thirds(nv))[0] is strong
    # best_supported_value delegates, for counts and for supporter sets.
    supporters = {value: frozenset(range(count)) for value, count in support.items()}
    for fraction in ("one_third", "two_thirds"):
        want = reference_best(support, nv, fraction=fraction)
        assert best_supported_value(support, nv, fraction=fraction) is want
        assert best_supported_value(supporters, nv, fraction=fraction) is want


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(case=restrictions())
@example(case=(Inbox({0: ["x"], 1: ["y", "x"]}), frozenset({1})))
@example(case=(Inbox({0: [1], 1: [True, [1]], 2: [1.0, [1]]}), frozenset({1, 2})))
def test_restricted_matches_the_regrouped_rebuild(case):
    inbox, allowed = case
    got = inbox.restricted(allowed)
    assert_same_inbox(got, reference_restricted(inbox, allowed))
    if inbox.senders <= allowed:
        assert got is inbox
    assert inbox.restricted(allowed) is got


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(inbox=batched_inboxes())
@example(inbox=Inbox({0: [_A, "noise"], 1: [_A, _B], 2: [PCBatch(()), _B, _A]}))
@example(inbox=Inbox({3: [_C], 4: [_D]}))
def test_split_matches_pairwise_routing(inbox):
    got = _route_instances(inbox)
    want = reference_route(inbox)
    assert list(got) == list(want)
    for instance_round, routed in want.items():
        assert_same_inbox(got[instance_round], routed)


@settings(max_examples=300)
@given(
    coordinator_payloads=st.lists(
        st.one_of(
            st.builds(PCOpinion, few_payloads, st.sampled_from(["a", "b", BOTTOM])),
            st.builds(PCInput, hashable_payloads, st.just("a")),
            st.builds(PCPrefer, hashable_payloads, st.just("b")),
            hashable_payloads,
        ),
        max_size=8,
    ),
    other_payloads=st.lists(
        st.builds(PCOpinion, hashable_payloads, st.just("c")), max_size=3
    ),
)
@example(
    coordinator_payloads=[PCOpinion([1], "a"), PCOpinion(True, "b"), PCOpinion(1, "a")],
    other_payloads=[PCOpinion("x", "c")],
)
def test_opinion_index_matches_the_linear_scan(coordinator_payloads, other_payloads):
    coordinator = 3
    inbox = Inbox({0: other_payloads, coordinator: coordinator_payloads})
    index = _opinion_index(inbox, coordinator)
    for instance in (0, 1, True, 1.0, "x", "y", (1, 2), "never sent"):
        assert index.get(instance, _MISSING) is reference_opinion(
            inbox, coordinator, instance
        )


def replayed(inbox):
    return ReplayStrategy().act(AdversaryContext(9, view=RoundView(2, inbox)))


@settings(max_examples=200)
@given(pairs=st.lists(st.tuples(st.integers(0, 4), payloads), max_size=10))
def test_replay_matches_the_first_row_scan(pairs):
    inbox = Inbox.from_pairs(pairs)
    got, want = replayed(inbox), reference_replay(inbox)
    assert got == want
    assert [repr(action) for action in got] == [repr(action) for action in want]
    assert all(a.payload is b.payload for a, b in zip(got, want))


def test_replay_sends_each_distinct_payload_once_in_first_row_order():
    """Senders 4 and 5 repeat sender 3's payloads, one of them unhashable;
    each goes out once, where the scan first met it."""

    inbox = Inbox.from_pairs([
        (3, "a"), (4, [1]), (4, "a"), (5, True), (5, [1]), (3, 1.0), (5, "b"),
    ])
    got = replayed(inbox)
    assert got == reference_replay(inbox)
    assert [repr(action) for action in got] == [
        "Broadcast(payload='a')",
        "Broadcast(payload=1.0)",
        "Broadcast(payload=[1])",
        "Broadcast(payload='b')",
    ]


def test_total_order_under_replay_matches_the_reference_routing():
    """Total order with replaying attackers, whose senders deliver several
    batches a round, routes exactly as the pairwise reference does."""

    spec = ScenarioSpec(
        protocol="total-order",
        n=7,
        f=2,
        adversary="replay",
        seed=3,
        churn={
            "pattern": "flash-crowd",
            "burst_round": 5,
            "burst_size": 4,
            "exodus_round": 20,
            "exodus_fraction": 0.2,
            "rounds": 40,
        },
    )
    several = 0

    def counting_reference(inbox):
        nonlocal several
        batches = Counter(s for s, p in inbox.items() if type(p) is PCBatch)
        several += any(count > 1 for count in batches.values())
        return reference_route(inbox)

    def observed(outcome):
        processes = outcome.result.processes
        chains = {i: p.chain for i, p in processes.items() if hasattr(p, "chain")}
        metrics = outcome.result.metrics
        return chains, metrics.decisions, metrics.as_dict(), fingerprint(outcome)

    got = observed(run_scenario(spec))
    with mock.patch.object(total_order, "_route_instances", counting_reference):
        want = observed(run_scenario(spec))
    assert several > 0, "no sender delivered two batches in one round"
    assert any(got[0].values()), "nothing committed"
    assert got == want


# ---------------------------------------------------------------------------
# Shared protocol steps against private inboxes
# ---------------------------------------------------------------------------

#: The stepped nodes.  They also send, so a core can select itself.
NODES = (1, 2, 3)

rotor_candidates = st.sampled_from([1, 2, 7, 8])

#: The engines' input ``"x"`` and ``"y"``, which only messages start.
pc_instances = st.sampled_from("xy")

#: Payloads several senders send alike, so that supports reach the
#: thresholds of nv = 6: echoes, consensus and parallel-consensus values
#: and opinions.
group_payloads = st.one_of(
    st.builds(RotorEcho, rotor_candidates),
    rotor_candidates.map(lambda candidate: CandidateGossip(adds=(candidate,))),
    st.builds(ConsensusInput, st.integers(0, 1)),
    st.builds(Prefer, st.integers(0, 1)),
    st.builds(StrongPrefer, st.integers(0, 1)),
    st.builds(Opinion, st.sampled_from("ab")),
    st.builds(PCInput, pc_instances, st.integers(0, 1)),
    st.builds(PCPrefer, pc_instances, st.integers(0, 1)),
    st.builds(PCStrongPrefer, pc_instances, st.integers(0, 1)),
    st.builds(PCNoPreference, pc_instances),
    st.builds(PCNoStrongPreference, pc_instances),
    st.builds(PCOpinion, pc_instances, st.integers(0, 1)),
)

#: Single rows: gossip with several adds and anchors, and junk, from any
#: sender including 7–9, which no init wave announces.
odd_rows = st.lists(
    st.tuples(
        st.integers(1, 9),
        st.one_of(
            st.builds(
                CandidateGossip,
                adds=st.lists(rotor_candidates, max_size=3, unique=True).map(tuple),
                anchor=st.none() | st.lists(rotor_candidates, unique=True).map(
                    lambda members: tuple(sorted(members))
                ),
            ),
            st.just("junk"),
        ),
    ),
    max_size=3,
)


@st.composite
def traffic(draw) -> list:
    rows = []
    for payload, supporters in draw(
        st.lists(st.tuples(group_payloads, st.sets(st.integers(1, 6))), max_size=4)
    ):
        rows.extend((sender, payload) for sender in sorted(supporters))
    return rows + draw(odd_rows)


@st.composite
def history_rounds(draw, first: bool):
    """One round: up to three inboxes, which one each node reads and
    whether it runs a selection.  Each inbox is the round's base traffic
    less some dropped rows, plus rows that reach only it."""

    if first:
        inits = draw(st.sets(st.integers(1, 9), min_size=1))
        base = [(sender, RotorInit()) for sender in sorted(inits)]
    else:
        base = draw(traffic())
    inboxes = []
    for _ in range(draw(st.integers(1, 3))):
        kept = [pair for pair in base if draw(st.integers(0, 3))]
        inboxes.append(tuple(kept + draw(odd_rows)))
    reads = tuple(draw(st.integers(0, len(inboxes) - 1)) for _ in NODES)
    select = draw(st.booleans())
    selects = tuple(
        select if draw(st.integers(0, 3)) else not select for _ in NODES
    )
    return tuple(inboxes), reads, selects


@st.composite
def histories(draw):
    """Rounds 2 onwards; round 2 is the init wave."""

    rest = draw(st.lists(history_rounds(first=False), max_size=8))
    return (draw(history_rounds(first=True)), *rest)


def step_history(history, *, shared: bool) -> list:
    """Step a rotor core, a consensus process and a parallel-consensus
    engine per node through ``history``; return everything they emit and
    expose, round by round.

    With ``shared`` every reader of an inbox gets the same object, as a
    synchronous round delivers it; otherwise each gets a private copy, so
    no memo entry is shared.
    """

    cores = {node: RotorCoordinatorCore(node) for node in NODES}
    processes = {node: ConsensusProcess(node, input_value=node % 2) for node in NODES}
    engines = {node: ParallelConsensusEngine(node, {"x": 1}) for node in NODES}
    for node in NODES:
        cores[node].init_round_one()
        processes[node].step(RoundView(1, Inbox.empty()))
        engines[node].step(1, Inbox.empty())
    seen = []
    for round_index, (pair_lists, reads, selects) in enumerate(history, start=2):
        inboxes = [Inbox.from_pairs(pairs) for pairs in pair_lists]
        for node, read, select in zip(NODES, reads, selects):

            def delivered() -> Inbox:
                inbox = inboxes[read]
                return inbox if shared else Inbox.from_pairs(inbox.items())

            core = cores[node]
            if round_index == 2:
                payloads = core.init_round_two(delivered())
            else:
                payloads = core.observe(delivered())
            outcome = None
            if select and round_index > 2:
                outcome = core.execute_selection(
                    delivered(), f"v{node}", round_index=round_index
                )
            seen.append((
                "core", round_index, node, payloads, outcome, core.candidates,
                core.selection_history, core.selected, core.last_selected, core.nv,
            ))
            engine = engines[node]
            sent = engine.step(round_index, delivered())
            seen.append((
                "parallel", round_index, node, sent, engine.nv, engine._loop.ids,
                engine._table.states, engine._table.pending, engine.phase,
                engine.all_decided, engine.idle, engine.outputs,
                engine.rotor.selection_history,
            ))
            process = processes[node]
            if process.halted:
                continue
            sent = [out.payload for out in process.step(RoundView(round_index, delivered()))]
            rotor = process.rotor
            seen.append((
                "consensus", round_index, node, sent, process.nv,
                process._loop.ids, process.silent_count, process.opinion,
                process.output, rotor.candidates, rotor.selection_history,
                rotor.last_selected,
            ))
    return seen


def check_shared_equals_private(history) -> None:
    shared = step_history(history, shared=True)
    private = step_history(history, shared=False)
    for got, want in zip(shared, private):
        assert got == want
    assert len(shared) == len(private)


def wave(inits, junk=()):
    """An init wave from ``inits``, plus junk from senders that reach only
    this inbox."""

    return tuple((sender, RotorInit()) for sender in inits) + tuple(
        (sender, "junk") for sender in junk
    )


def echoes(candidate, senders):
    return tuple((sender, RotorEcho(candidate)) for sender in senders)


def one_round(*inboxes, reads=(0, 0, 0), selects=(False, False, False)):
    return inboxes, reads, selects


#: One history per input of the rotor transitions, on which nodes 1 and 2
#: differ in that input alone: they diverge on private inboxes, then read
#: one shared inbox.
DIVERGENT_HISTORIES = {
    # Node 2 also hears 7–9: four echoes of 7 meet 2nv/3 only at node 1.
    "nv": (
        one_round(wave(range(1, 7)), wave(range(1, 7), junk=(7, 8, 9)), reads=(0, 1, 0)),
        one_round(echoes(7, range(1, 5))),
    ),
    # Node 2 misses one echo of 7: both relay it, only node 1 accepts it.
    # Two more echoes are then nothing to node 1 and a relay to node 2.
    "candidates": (
        one_round(wave(range(1, 7))),
        one_round(echoes(7, range(1, 5)), echoes(7, range(1, 4)), reads=(0, 1, 0)),
        one_round(echoes(7, (1, 2))),
    ),
    # Node 2 hears 6 but not its init: equal nv, different echoed sets,
    # which the third relay's anchor shows.
    "echoed": (
        one_round(wave(range(1, 7)), wave(range(1, 6), junk=(6,)), reads=(0, 1, 0)),
        one_round(echoes(7, (1, 2))),
        one_round(echoes(8, (1, 2))),
        one_round(echoes(9, (1, 2))),
    ),
    # Node 1 relays 7 and 8 in two rounds, node 2 both in the second:
    # equal echoed sets, and only node 1's next relay is an anchor.
    "phase": (
        one_round(wave(range(1, 7))),
        one_round(echoes(7, (1, 2)), (), reads=(0, 1, 0)),
        one_round(echoes(8, (1, 2)), echoes(7, (1, 2)) + echoes(8, (1, 2)), reads=(0, 1, 0)),
        one_round(echoes(9, (1, 2))),
    ),
    # Node 1 selects 7 while node 2's Cv is still empty; once both hold
    # 7 alone, node 1 re-selects it and stops, node 2 selects it.
    "log": (
        one_round(wave(range(1, 7))),
        one_round(
            echoes(7, range(1, 5)), echoes(7, (1, 2)),
            reads=(0, 1, 0), selects=(True, True, False),
        ),
        one_round(echoes(7, range(1, 5)) + echoes(8, (1, 2)), selects=(True, True, False)),
    ),
    # Node 1 runs a selection on an empty Cv and node 2 does not: equal
    # (empty) logs, different indexes, so they pick different candidates.
    "index": (
        one_round(wave(range(1, 7))),
        one_round((), selects=(True, False, False)),
        one_round(echoes(7, range(1, 5)) + echoes(8, range(1, 5)), selects=(True, True, False)),
    ),
}


def junk(senders):
    return tuple((sender, "junk") for sender in senders)


def inputs(senders):
    return tuple((sender, PCInput("x", 1)) for sender in senders)


QUIET = one_round(())


#: One history per input of the parallel-consensus table transition, on
#: which engines 1 and 2 differ in that input alone.  Local round 3 is the
#: first phase round; phase 2 starts at round 8.
TABLE_HISTORIES = {
    # Only engine 1 sees four inputs and prefers 1; the same quiet round
    # then leaves the engines' tables apart.
    "table": (
        one_round(wave(range(1, 7))),
        QUIET,
        one_round(inputs((3, 4, 5, 6)), inputs((3, 4, 5)) + junk((6,)), reads=(0, 1, 0)),
        QUIET,
    ),
    # Engine 2 also knows 7: four inputs meet 2nv/3 at engine 1 only.
    "view": (
        one_round(wave(range(1, 7))),
        one_round((), junk((7,)), reads=(0, 1, 0)),
        one_round(inputs((1, 2, 3, 4))),
    ),
    # Only engine 2 hears 6 inside the loop: engine 1 fills in for 6.
    "loop": (
        one_round(wave(range(1, 7))),
        QUIET,
        one_round(junk(range(1, 6)), junk(range(1, 7)), reads=(0, 1, 0)),
        *(QUIET for _ in range(4)),
        one_round(inputs((1, 2, 3))),
    ),
    # Node 2 never spoke in the init rounds: its engine does not count
    # itself as missing, and four ⊥ stand-ins meet 2nv/3 there only.
    "in_view": (
        one_round(wave((1, 3, 4, 5, 6, 7))),
        QUIET,
        one_round(inputs((3, 4))),
    ),
    # Node 2 never speaks inside the loop: in phase 2 its engine fills in
    # for one sender fewer than engine 1, whose own-message stand-ins
    # meet 2nv/3.
    "in_loop": (
        one_round(wave(range(1, 7))),
        QUIET,
        one_round(junk((1, 3))),
        *(QUIET for _ in range(4)),
        one_round(inputs((4,))),
    ),
    # Node 2 sends junk but no input: its engine counts itself among the
    # missing, and one ⊥ stand-in fewer falls short of 2nv/3.
    "rows": (
        one_round(wave(range(1, 7))),
        QUIET,
        one_round(inputs((1, 3)) + junk((2,))),
    ),
    # Cv is {1}, so node 1 is the first phase's coordinator and only its
    # engine publishes opinions.
    "coordinator": (
        one_round(wave(range(1, 7))),
        one_round(echoes(1, range(1, 5))),
        QUIET,
        QUIET,
        QUIET,
    ),
}


def _examples(test):
    for history in (*DIVERGENT_HISTORIES.values(), *TABLE_HISTORIES.values()):
        test = example(history=history)(test)
    return test


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(history=histories())
@_examples
def test_shared_steps_equal_private_steps(history):
    """Rotor cores, consensus processes and parallel-consensus engines
    stepped on shared inboxes emit and hold exactly what they do on
    private copies: a memoized transition is only ever reused by a node in
    the same state."""

    check_shared_equals_private(history)


#: Engine inputs for the reference comparison: node 3's differ, and its
#: ``"y"`` input is ⊥.
REFERENCE_INPUTS = {1: {"x": 1}, 2: {"x": 1}, 3: {"x": 0, "y": None}}

#: Everyone's messages for ``"x"`` decide it in phase round 5 (round 7);
#: quiet rounds then run past the end of the linger window.
LINGER_HISTORY = (
    one_round(wave(range(1, 7))),
    QUIET,
    one_round(inputs(range(1, 7))),
    one_round(tuple((sender, PCPrefer("x", 1)) for sender in range(1, 7))),
    one_round(tuple((sender, PCStrongPrefer("x", 1)) for sender in range(1, 7))),
    *(QUIET for _ in range(7)),
)


def observables(engine) -> tuple:
    return (
        engine.nv, engine.phase, engine.instances, engine.opinion("x"),
        engine.opinion("y"), engine.outputs, engine.all_decided, engine.idle,
        engine.rotor.selection_history,
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(history=histories())
@example(history=LINGER_HISTORY)
@_examples
def test_engines_match_the_mutable_reference(history):
    """Engines stepped on shared inboxes emit and expose exactly what the
    mutable per-node engine they replaced does on private copies."""

    engines = {node: ParallelConsensusEngine(node, REFERENCE_INPUTS[node]) for node in NODES}
    references = {node: ReferenceEngine(node, REFERENCE_INPUTS[node]) for node in NODES}
    for node in NODES:
        engines[node].step(1, Inbox.empty())
        references[node].step(1, Inbox.empty())
    for round_index, (pair_lists, reads, _selects) in enumerate(history, start=2):
        inboxes = [Inbox.from_pairs(pairs) for pairs in pair_lists]
        for node, read in zip(NODES, reads):
            inbox = inboxes[read]
            got = engines[node].step(round_index, inbox)
            want = references[node].step(round_index, Inbox.from_pairs(inbox.items()))
            assert [repr(p) for p in got] == [repr(p) for p in want]
            assert got == want
            assert observables(engines[node]) == observables(references[node])


# ---------------------------------------------------------------------------
# Byzantine steps: shared actions against private inboxes
# ---------------------------------------------------------------------------

#: The stepped Byzantine nodes.
BYZANTINE = (10, 11, 12)

#: The strategies that declare ``shared_act``, each with field values that
#: change what it sends.
SHARED_VARIANTS = {
    "crash": ({}, {"crash_after_round": 2}),
    "replay": ({},),
    "equivocate-value": ({}, {"payload_b": ("value", 7)}),
    "rb-false-echo": ({}, {"victim_source": 4}),
    "rb-forged-source": ({}, {"phantom_id": 99}),
    "rotor-candidate-stuffer": ({}, {"participate": False}),
    "rotor-usurper": ({}, {"opinion_b": 7}),
    "consensus-split-vote": ({}, {"value_a": 7}),
    "consensus-strongprefer-spoofer": ({}, {"value": 0}),
    "approx-outlier": ({}, {"high": 5.0}),
}

#: ``(name, kwargs)`` of every declared strategy variant.
SHARED_CHOICES = tuple(
    (name, tuple(kwargs.items()))
    for name, variants in SHARED_VARIANTS.items()
    for kwargs in variants
)


class ByzantineHistory(NamedTuple):
    """Byzantine nodes stepped through rounds 1, 2, …

    ``strategies`` holds each node's ``(name, kwargs)``.  Each row list of
    ``inboxes`` becomes one inbox for the whole history, so a later round
    can read an inbox an earlier one read; ``systems`` are ``(active,
    byzantine)`` id sets.  Each round gives every node the index of the
    inbox it reads and of its system view, or ``None`` for none.
    """

    strategies: tuple
    inboxes: tuple
    systems: tuple
    rounds: tuple


byzantine_payloads = st.one_of(
    st.just(RotorInit()),
    st.builds(RotorEcho, st.sampled_from([1, 2, 10])),
    st.builds(ConsensusInput, st.integers(0, 1)),
    st.builds(ValueMessage, st.sampled_from([0.0, 1.0]), st.integers(0, 2)),
    few_payloads,
)

byzantine_rows = st.lists(
    st.tuples(st.sampled_from((1, 2, 3, 4, 5, 6, *BYZANTINE)), byzantine_payloads),
    max_size=6,
).map(tuple)

system_ids = st.tuples(
    st.frozensets(st.integers(1, 6), min_size=1),
    st.frozensets(st.sampled_from((1, *BYZANTINE))),
).map(lambda ids: (ids[0] | ids[1], ids[1]))


@st.composite
def byzantine_histories(draw):
    """Up to four rounds of up to three inboxes and two system views; the
    nodes run one to three strategies, so equal ones often meet."""

    pool = draw(st.lists(st.sampled_from(SHARED_CHOICES), min_size=1, max_size=3))
    strategies = tuple(draw(st.sampled_from(pool)) for _ in BYZANTINE)
    inboxes = tuple(draw(st.lists(byzantine_rows, min_size=1, max_size=3)))
    systems = tuple(draw(st.lists(system_ids, min_size=1, max_size=2)))
    # Mostly with a system view: without one a node steps privately.
    system = st.sampled_from((None, *tuple(range(len(systems))) * 3))
    reads = st.tuples(*(
        st.tuples(st.integers(0, len(inboxes) - 1), system) for _ in BYZANTINE
    ))
    rounds = tuple(draw(st.lists(reads, min_size=1, max_size=4)))
    return ByzantineHistory(strategies, inboxes, systems, rounds)


def step_byzantine(history: ByzantineHistory, *, shared: bool) -> list:
    """Step the history's nodes; return each step's actions, their
    ``repr`` and the node's known senders.

    With ``shared`` every reader of an inbox gets the same object;
    otherwise each step gets a private copy, so no memo entry is shared.
    """

    nodes = [
        ByzantineProcess(node, make_strategy(name, **dict(kwargs)))
        for node, (name, kwargs) in zip(BYZANTINE, history.strategies)
    ]
    inboxes = [Inbox.from_pairs(rows) for rows in history.inboxes]
    systems = [
        SystemView(
            round_index=0, active_ids=active, byzantine_ids=byzantine,
            correct_processes={}, rng=make_rng(0),
        )
        for active, byzantine in history.systems
    ]
    seen = []
    for round_index, reads in enumerate(history.rounds, start=1):
        for process, (read, system) in zip(nodes, reads):
            process.observe_system(None if system is None else systems[system])
            inbox = inboxes[read]
            if not shared:
                inbox = Inbox.from_pairs(inbox.items())
            actions = process.step(RoundView(round_index, inbox))
            seen.append((
                round_index, process.node_id, actions, [repr(a) for a in actions],
                process._ctx.known_ids,
            ))
    return seen


def check_byzantine_shared_equals_private(history: ByzantineHistory) -> None:
    shared = step_byzantine(history, shared=True)
    private = step_byzantine(history, shared=False)
    for got, want in zip(shared, private):
        assert got == want
    assert len(shared) == len(private)


def byzantine_history(strategies, *rounds, inboxes, systems):
    return ByzantineHistory(
        tuple((name, tuple(kwargs.items())) for name, kwargs in strategies),
        inboxes, systems, rounds,
    )


#: Senders 1–3, and 4–5: a node that read the second knows other senders.
_FIRST = tuple((sender, RotorInit()) for sender in (1, 2, 3))
_SECOND = tuple((sender, RotorInit()) for sender in (4, 5))
_CORRECT = frozenset(range(1, 7))
_EVERYONE = (_CORRECT | {10, 11}, frozenset({10, 11}))
_EVERYONE_VIEW = SystemView(
    round_index=1, active_ids=_EVERYONE[0], byzantine_ids=_EVERYONE[1],
    correct_processes={}, rng=make_rng(0),
)
#: A round in which nodes 10 and 11 both read inbox 0 with view 0.
_ALIKE = ((0, 0), (0, 0))

#: One history per input of the shared step (the strategy's class and fields,
#: round, known, active and Byzantine ids): nodes 10 and 11 differ in it alone.
ACT_HISTORIES = {
    # A usurper and a split voter with equal field values (0, 1): in
    # round 3 one sends opinions, the other four votes per target.
    "cls": byzantine_history(
        [("rotor-usurper", {}), ("consensus-split-vote", {})],
        _ALIKE, _ALIKE, _ALIKE,
        inboxes=(_FIRST,), systems=(_EVERYONE,),
    ),
    "fields": byzantine_history(
        [("consensus-split-vote", {}), ("consensus-split-vote", {"value_a": 7})],
        _ALIKE, _ALIKE, _ALIKE,
        inboxes=(_FIRST,), systems=(_EVERYONE,),
    ),
    # Node 10 reads the first inbox in round 1; node 11, which has read
    # only an empty one, in round 2.  Node 10 is alive, node 11 crashed.
    "round_index": byzantine_history(
        [("crash", {}), ("crash", {})],
        ((0, 0), (1, 0)),
        ((1, 0), (0, 0)),
        inboxes=(_FIRST, ()), systems=(_EVERYONE,),
    ),
    # Node 11 also knows 4 and 5, so it echoes them in round 2.
    "known": byzantine_history(
        [("rotor-candidate-stuffer", {}), ("rotor-candidate-stuffer", {})],
        ((0, 0), (1, 0)),
        _ALIKE,
        inboxes=(_FIRST, _SECOND), systems=(_EVERYONE,),
    ),
    # Node 11's view lacks node 6, so its halves split elsewhere.
    "active": byzantine_history(
        [("equivocate-value", {}), ("equivocate-value", {})],
        ((0, 0), (0, 1)),
        inboxes=(_FIRST,),
        systems=(_EVERYONE, (_EVERYONE[0] - {6}, _EVERYONE[1])),
    ),
    # Node 11's view counts node 1 as Byzantine: it echoes for node 2.
    "byzantine": byzantine_history(
        [("rb-false-echo", {}), ("rb-false-echo", {})],
        ((0, 0), (0, 1)),
        ((0, 0), (0, 1)),
        inboxes=(_FIRST,),
        systems=(_EVERYONE, (_EVERYONE[0], _EVERYONE[1] | {1})),
    ),
}

#: Two split echoers in one state: each echoes its own id.
SPLIT_ECHO_HISTORY = byzantine_history(
    [("rotor-split-echo", {}), ("rotor-split-echo", {})],
    _ALIKE, _ALIKE,
    inboxes=(_FIRST,), systems=(_EVERYONE,),
)

#: Every node on one declared strategy, its variants side by side, over
#: four rounds of shared inboxes and two views.
EVERY_STRATEGY_HISTORIES = [
    byzantine_history(
        [(name, variants[index % len(variants)]) for index in range(len(BYZANTINE))],
        ((0, 0), (1, 0), (0, None)),
        ((2, 0), (2, 0), (2, 1)),
        ((0, 1), (2, 1), (0, 1)),
        ((2, 0), (2, 0), (2, 0)),
        inboxes=(
            _FIRST,
            _SECOND + ((10, [1]),),
            _FIRST + ((4, RotorEcho(1)), (5, ValueMessage(1.0)), (11, RotorEcho(1))),
        ),
        systems=(_EVERYONE, (_EVERYONE[0] - {6}, _EVERYONE[1] | {1})),
    )
    for name, variants in SHARED_VARIANTS.items()
]


def _byzantine_examples(test):
    for history in (*ACT_HISTORIES.values(), SPLIT_ECHO_HISTORY, *EVERY_STRATEGY_HISTORIES):
        test = example(history=history)(test)
    return test


def test_the_declared_strategies_are_the_ten_that_read_no_node_state():
    declared = sorted(
        name for name, factory in STRATEGY_FACTORIES.items() if factory.shared_act
    )
    assert declared == sorted(SHARED_VARIANTS)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(history=byzantine_histories())
@_byzantine_examples
def test_shared_byzantine_steps_equal_private_steps(history):
    """Byzantine nodes stepped on shared inboxes send exactly what they
    send on private copies, and know the same senders: memoized actions
    are only ever reused by a node with the same key."""

    check_byzantine_shared_equals_private(history)


@dataclass(frozen=True)
class ReadsNodeState(AdversaryStrategy):
    """Declared shared, yet it sends one node-specific context field."""

    attribute: str
    shared_act = True

    def act(self, ctx):
        return [Broadcast(getattr(ctx, self.attribute))]


@pytest.mark.parametrize("attribute", ["node_id", "rng", "memory", "seed", "system"])
def test_a_shared_strategy_that_reads_node_state_fails_on_its_first_call(attribute):
    process = ByzantineProcess(10, ReadsNodeState(attribute))
    process.observe_system(_EVERYONE_VIEW)
    with pytest.raises(AttributeError, match=attribute):
        process.step(RoundView(1, Inbox.from_pairs(_FIRST)))


def test_equal_nodes_act_once_per_inbox_and_the_rest_alone():
    """Equal nodes on one inbox make one shared ``act`` call; a node without
    a system view, or with an unhashable field value, makes its own."""

    calls = Counter()

    def counted(cls):
        act = cls.act

        def wrapper(self, ctx):
            calls[type(self).name, type(ctx).__name__] += 1
            return act(self, ctx)

        return mock.patch.object(cls, "act", wrapper)

    split = STRATEGY_FACTORIES["consensus-split-vote"]
    stuffer = STRATEGY_FACTORIES["rotor-candidate-stuffer"]
    voters = [ByzantineProcess(node, split()) for node in (10, 11, 12)]
    stuffers = [
        ByzantineProcess(13, stuffer(phantom_ids=[7, 8])),
        ByzantineProcess(14, stuffer(phantom_ids=[7, 8])),
    ]
    inbox = Inbox.from_pairs(_FIRST)
    with counted(split), counted(stuffer):
        for process in (*voters, *stuffers):
            if process.node_id != 12:
                process.observe_system(_EVERYONE_VIEW)
            process.step(RoundView(3, inbox))
    assert calls == {
        ("consensus-split-vote", "SharedContext"): 1,
        ("consensus-split-vote", "AdversaryContext"): 1,
        ("rotor-candidate-stuffer", "AdversaryContext"): 2,
    }
    # One entry, for nodes 10 and 11: known ids and actions, no inbox.
    [(known, actions)] = [
        value for (fn, _args), value in inbox._memo.items() if fn is _shared_step
    ]
    assert known == {1, 2, 3}
    assert actions and all(isinstance(action, Unicast) for action in actions)
