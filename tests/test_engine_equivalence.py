"""Metamorphic delivery-path equivalence suite.

The network files messages in flight as batches keyed by delivery round
and delivers a round one of three ways (see :mod:`repro.sim.network`): a
broadcast-only synchronous round shares one inbox object among all
recipients; a synchronous round with unicasts gives recipients with equal
``(sender, payload)`` row lists one inbox object; and a delayed round
hands each recipient its own inbox.
For every registered protocol, over a grid of seeds, a synchronous run
must be **bit-identical** to its per-destination twin
(:func:`make_delayed_digests.per_destination_twin`), which hands each
recipient its own inbox in every round — the same trace events in the
same order, the same metrics (including per-node counter *insertion
order*), the same outputs, the same stop reason.  Every registered
adversary strategy runs on both paths too, so the twin is also the
private reference for the attackers' shared steps.  A divergence anywhere
means sharing changed observable semantics, not just speed.  The
grouping rule itself is a Hypothesis property here: recipients share an
inbox exactly when their row lists are equal (and hashable), and every
inbox lists what its twin lists.  Delayed delivery, which always takes
the per-destination path, is pinned by the run digests of
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
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.adversary import available_strategies
from repro.api import ScenarioSpec, SweepRunner, SweepSpec, available_protocols
from repro.api.registry import REGISTRY, build_system
from repro.api.sweep import run_scenario, run_sweep
from repro.core import tally
from repro.sim import (
    Broadcast,
    FixedScheduleDelay,
    Process,
    SynchronousNetwork,
    Unicast,
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


#: One scenario for each registered strategy the table above does not use,
#: each on a protocol it attacks, so every strategy runs on both paths.
#: The twin gives every recipient of a message its own inbox, so each
#: attacker that hears anything computes its own actions there: it is the
#: private reference for the shared ``act`` of the strategies that declare
#: :attr:`repro.adversary.AdversaryStrategy.shared_act`.
STRATEGY_SCENARIOS = {
    "silent": dict(protocol="reliable-broadcast", n=7, f=2),
    "crash": dict(protocol="consensus", n=7, f=2),
    "replay": dict(protocol="parallel-consensus", n=7, f=2),
    "coordinated-equivocation": dict(protocol="consensus", n=7, f=2),
    "rb-forged-source": dict(protocol="reliable-broadcast", n=7, f=2),
    "rotor-candidate-stuffer": dict(protocol="rotor-coordinator", n=7, f=2),
    "rotor-usurper": dict(protocol="rotor-coordinator", n=7, f=2),
    "consensus-strongprefer-spoofer": dict(protocol="consensus", n=7, f=2),
}


def shared_and_twin(spec: ScenarioSpec) -> tuple:
    """Fingerprints of ``spec`` on the shared path and on its twin."""

    shared = fingerprint(run_scenario(spec))
    with per_destination_twin():
        twin = fingerprint(run_scenario(spec))
    return shared, twin


class DeliveredRound(NamedTuple):
    """One round that delivered anything, as the round loop saw it."""

    round_index: int
    inboxes: int  # distinct inbox objects
    recipients: int
    builds: int  # tally builds while the round's processes stepped


def delivery_per_round(spec: ScenarioSpec) -> tuple:
    """Run ``spec``; return the outcome and its :class:`DeliveredRound` list."""

    rounds = []
    step_processes = SynchronousNetwork._step_processes

    def spy(network, round_index, round_metrics, inboxes):
        builds = tally.profile_snapshot()["builds"]
        outgoing = step_processes(network, round_index, round_metrics, inboxes)
        if inboxes:
            distinct = len({id(inbox) for inbox in inboxes.values()})
            builds = tally.profile_snapshot()["builds"] - builds
            rounds.append(DeliveredRound(round_index, distinct, len(inboxes), builds))
        return outgoing

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


def test_scenario_tables_cover_every_registered_strategy():
    used = {scenario["adversary"] for scenario in SCENARIOS.values()}
    assert not used & set(STRATEGY_SCENARIOS)
    assert sorted(used | set(STRATEGY_SCENARIOS)) == available_strategies()


@pytest.mark.parametrize("adversary", sorted(STRATEGY_SCENARIOS))
def test_every_strategy_matches_its_per_destination_twin(adversary):
    spec = ScenarioSpec(
        adversary=adversary, seed=0, trace=True, **STRATEGY_SCENARIOS[adversary]
    )
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
    shared, shared_rounds = delivery_per_round(spec)
    with per_destination_twin():
        twin, twin_rounds = delivery_per_round(spec)
    assert shared_rounds and all(r.inboxes == 1 for r in shared_rounds)
    assert any(r.recipients > 1 for r in shared_rounds)
    assert [r.recipients for r in twin_rounds] == [r.recipients for r in shared_rounds]
    assert all(r.inboxes == r.recipients for r in twin_rounds)
    assert fingerprint(shared) == fingerprint(twin)


def test_unicast_rounds_share_inboxes_and_the_twin_does_not():
    """Equivocation rounds are shared too, and the twin still is not.

    ``consensus-split-vote`` unicasts one vote to half of the system and
    the other vote to the rest, so from round 4 on every round delivers
    unicasts.  The synchronous run gives the recipients of equal rows one
    inbox object, so it builds fewer inboxes than there are recipients,
    and fewer tallies than its per-destination twin, which hands out one
    inbox object per recipient.  The two runs still match.
    """

    spec = ScenarioSpec(
        protocol="consensus", n=7, f=2, adversary="consensus-split-vote",
        seed=0, trace=True,
    )
    shared, shared_rounds = delivery_per_round(spec)
    with per_destination_twin():
        twin, twin_rounds = delivery_per_round(spec)
    after_unicasts = {
        metrics.round_index + 1
        for metrics in shared.result.metrics.rounds
        if metrics.unicasts
    }
    shared_rounds = [r for r in shared_rounds if r.round_index in after_unicasts]
    twin_rounds = [r for r in twin_rounds if r.round_index in after_unicasts]
    assert len(shared_rounds) >= 10
    for ours, theirs in zip(shared_rounds, twin_rounds, strict=True):
        assert ours.inboxes < ours.recipients
        assert theirs.round_index == ours.round_index
        assert theirs.inboxes == theirs.recipients == ours.recipients
        assert ours.builds < theirs.builds
    assert fingerprint(shared) == fingerprint(twin)


@dataclass(frozen=True)
class Vote:
    """A small hashable payload; every send builds a new instance."""

    value: int


#: Payload codes of the grouped-delivery property: a :class:`Vote` value,
#: or ``UNHASHABLE`` for a list payload (breaks the wire contract, but the
#: network must still deliver it).
UNHASHABLE = 3


def make_payload(code: int):
    return ["unhashable"] if code == UNHASHABLE else Vote(code)


class Scripted(Process):
    """Sends ``script[round][node_id]`` — ``(dest, code)`` pairs, ``dest``
    ``None`` for a broadcast — keeps every inbox, and halts after its
    first step when it is the script's ``halter``."""

    def __init__(self, node_id, script):
        super().__init__(node_id)
        self.script = script
        self.inboxes = {}

    def step(self, view):
        self.inboxes[view.round_index] = view.inbox
        if self.node_id == self.script["halter"]:
            self.halt()
        return [
            Broadcast(make_payload(code)) if dest is None
            else Unicast(dest, make_payload(code))
            for dest, code in self.script["sends"].get(view.round_index, {}).get(
                self.node_id, ()
            )
        ]


def _members(script, round_index):
    """``(active, stepped)`` node ids in ``round_index``, each sorted."""

    active = set(script["ids"])
    if round_index >= 2:
        active = (active | {script["joiner"]}) - {script["leaver"]}
    stepped = active - {script["halter"]} if round_index >= 2 else active
    return sorted(active), sorted(stepped)


def expected_rows(script, round_index):
    """Each recipient's ``(sender, payload)`` rows in ``round_index``,
    worked out from the script alone."""

    sent_active, senders = _members(script, round_index - 1)
    _, recipients = _members(script, round_index)
    rows = {node: [] for node in recipients}
    for sender in senders:
        for dest, code in script["sends"].get(round_index - 1, {}).get(sender, ()):
            for node in sent_active if dest is None else (dest,):
                if node in rows:
                    rows[node].append((sender, make_payload(code)))
    return rows


def _hashable(rows) -> bool:
    try:
        hash(tuple(rows))
    except TypeError:
        return False
    return True


@st.composite
def delivery_scripts(draw):
    """Two rounds of broadcasts and unicasts among 3-6 nodes, one of them
    leaving and one joining in round 2, and one halting after round 1.

    In each round one sender sends a payload by broadcast and again by
    unicast, so every delivery round carries a unicast, and then unicasts
    a few payloads to one node and the same payloads, reordered, to
    another.
    """

    ids = tuple(range(1, draw(st.integers(3, 6)) + 1))
    joiner = draw(st.sampled_from((0, len(ids) + 1)))
    leaver, halter = draw(st.permutations(ids))[:2]
    everyone = ids + (joiner,)
    actions = st.lists(
        st.tuples(
            st.sampled_from((None, None, *everyone)),
            st.sampled_from((0, 1, 2) * 3 + (UNHASHABLE,)),
        ),
        max_size=3,
    )
    script = {"ids": ids, "joiner": joiner, "leaver": leaver, "halter": halter,
              "sends": {}}
    for round_index in (1, 2):
        senders = _members(script, round_index)[1]
        sends = {node: draw(actions) for node in senders}
        repeater = draw(st.sampled_from(senders))
        code = draw(st.integers(0, 2))
        codes = draw(st.permutations((0, 1, 2)))[: draw(st.integers(0, 3))]
        first, second = draw(st.permutations(everyone))[:2]
        sends[repeater] = [
            (None, code),
            (draw(st.sampled_from(everyone)), code),
            *((first, c) for c in codes),
            *((second, c) for c in reversed(codes)),
            *sends[repeater],
        ]
        script["sends"][round_index] = sends
    return script


def _run_script(script):
    procs = [Scripted(node, script) for node in script["ids"]]
    net = SynchronousNetwork(
        procs,
        joins={2: [Scripted(script["joiner"], script)]},
        leaves={2: [script["leaver"]]},
    )
    for _ in range(3):
        net.step_round()
    return net


#: Row lists that a wrong grouping key would share: in round 2 recipients
#: 1 and 3 get equal payloads from different senders, and in round 3
#: recipients 1 and 6 get equal rows in a different order.
GROUPING_TRAPS = {
    "ids": (1, 2, 3, 4, 5), "joiner": 6, "leaver": 4, "halter": 5,
    "sends": {
        1: {1: [(None, 0), (2, 0)], 2: [(3, 1)], 3: [(1, 1)]},
        2: {2: [(None, 0), (1, 1), (1, 2), (6, 2), (6, 1)]},
    },
}


@given(script=delivery_scripts())
@example(script=GROUPING_TRAPS)
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_grouped_delivery_matches_the_twin_and_shares_only_equal_rows(script):
    """Synchronous rounds with unicasts group recipients by their rows.

    Each recipient's inbox lists the same ``(sender, payload)`` pairs, in
    the same order, as its per-destination twin's; and two recipients
    share an inbox object exactly when their row lists are equal and
    hashable.
    """

    grouped = _run_script(script)
    with per_destination_twin():
        twin = _run_script(script)
    for round_index in (2, 3):
        rows = expected_rows(script, round_index)
        inboxes = {
            node: grouped.process(node).inboxes[round_index] for node in rows
        }
        for node, inbox in inboxes.items():
            theirs = twin.process(node).inboxes[round_index]
            assert list(inbox.items()) == list(theirs.items())
        for first, second in combinations(rows, 2):
            equal = rows[first] == rows[second] and _hashable(rows[first])
            assert (inboxes[first] is inboxes[second]) == equal, (
                round_index, first, second
            )
    for node, rounds in (
        (script["halter"], [1]), (script["leaver"], [1]), (script["joiner"], [2, 3])
    ):
        assert list(grouped.process(node).inboxes) == rounds


class SharedScripted(Scripted):
    """Returns ``lists[round][index]`` for the script's entry ``index`` of
    its node: one action tuple per round and entry, the same object for
    every node the entry names."""

    def __init__(self, node_id, script, lists):
        super().__init__(node_id, script)
        self.lists = lists

    def step(self, view):
        self.inboxes[view.round_index] = view.inbox
        if self.node_id == self.script["halter"]:
            self.halt()
        index = self.script["sends"].get(view.round_index, {}).get(self.node_id)
        return () if index is None else self.lists[view.round_index][index]


def _action_lists(script):
    """Each round's entries as action tuples.  An entry sends one payload
    object per code, so a code it broadcasts and unicasts is one object."""

    lists = {}
    for round_index, entries in script["lists"].items():
        lists[round_index] = []
        for entry in entries:
            payloads = {}
            lists[round_index].append(tuple(
                Broadcast(payloads.setdefault(code, make_payload(code)))
                if dest is None
                else Unicast(dest, payloads.setdefault(code, make_payload(code)))
                for dest, code in entry
            ))
    return lists


def _sends_by_node(script):
    """The script in :class:`Scripted`'s form: each node's ``(dest, code)``
    pairs, for :func:`expected_rows`."""

    return dict(script, sends={
        round_index: {
            node: script["lists"][round_index][index] for node, index in sends.items()
        }
        for round_index, sends in script["sends"].items()
    })


@st.composite
def shared_list_scripts(draw):
    """Two rounds among 3-6 nodes, one leaving and one joining in round 2
    and one halting after round 1, in which nodes return shared entries.

    Each round has a few entries: ones that broadcast and unicast, one that
    unicasts a payload and may broadcast the same payload object, and one
    of broadcasts only.  Each node returns one of them, or nothing, and
    one node returns the second, so every delivery round carries a
    unicast.
    """

    ids = tuple(range(1, draw(st.integers(3, 6)) + 1))
    joiner = draw(st.sampled_from((0, len(ids) + 1)))
    leaver, halter = draw(st.permutations(ids))[:2]
    everyone = ids + (joiner,)
    codes = st.sampled_from((0, 1, 2) * 3 + (UNHASHABLE,))
    action = st.tuples(st.sampled_from((None, None, *everyone)), codes)
    script = {"ids": ids, "joiner": joiner, "leaver": leaver, "halter": halter,
              "lists": {}, "sends": {}}
    for round_index in (1, 2):
        code = draw(codes)
        repeated = [(None, code)] if draw(st.booleans()) else []
        entries = [
            *draw(st.lists(st.lists(action, min_size=1, max_size=4), max_size=2)),
            [*repeated, (draw(st.sampled_from(everyone)), code)],
            draw(st.lists(st.tuples(st.none(), codes), min_size=1, max_size=2)),
        ]
        senders = _members(script, round_index)[1]
        choice = st.sampled_from((None, *range(len(entries))))
        sends = {node: draw(choice) for node in senders}
        sends[draw(st.sampled_from(senders))] = len(entries) - 2
        script["lists"][round_index] = entries
        script["sends"][round_index] = {
            node: index for node, index in sends.items() if index is not None
        }
    return script


#: Rows that a key starting from broadcast membership would split, or
#: that a class built only for members would drop.  In round 2 the joiner
#: 0 gets node 1's vote by unicast and node 3 the same vote by broadcast,
#: so the two share an inbox; in the second script the joiner's only row
#: is an unhashable payload, and it still gets an inbox of its own; in
#: the third, nodes 3 and 4 get one unhashable payload object each by
#: unicast, equal rows that must not share an inbox; in the fourth, nodes
#: 1 and 2 unicast to the same nodes, but only node 2 tells 3 and 4
#: different things, so 3 and 4 must not share; in the fifth, no one
#: broadcasts, so node 4, which hears nothing, shares the joiner's empty
#: inbox.
SHARED_LIST_TRAPS = (
    {"ids": (1, 2, 3), "joiner": 0, "leaver": 1, "halter": 2,
     "lists": {1: [[(None, 0), (0, 0)]]}, "sends": {1: {1: 0}}},
    {"ids": (1, 2, 3), "joiner": 0, "leaver": 2, "halter": 3,
     "lists": {1: [[(0, UNHASHABLE)], [(None, 1)]]}, "sends": {1: {1: 0, 2: 1}}},
    {"ids": (1, 2, 3, 4), "joiner": 0, "leaver": 1, "halter": 2,
     "lists": {1: [[(3, UNHASHABLE), (4, UNHASHABLE)]]}, "sends": {1: {1: 0}}},
    {"ids": (1, 2, 3, 4), "joiner": 5, "leaver": 1, "halter": 2,
     "lists": {1: [[(3, 0), (4, 0)], [(3, 0), (4, 1)]]}, "sends": {1: {1: 0, 2: 1}}},
    {"ids": (1, 2, 3, 4), "joiner": 0, "leaver": 1, "halter": 2,
     "lists": {1: [[(3, 0)]]}, "sends": {1: {1: 0}}},
)


def _run_shared_script(script):
    lists = _action_lists(script)
    procs = [SharedScripted(node, script, lists) for node in script["ids"]]
    net = SynchronousNetwork(
        procs,
        joins={2: [SharedScripted(script["joiner"], script, lists)]},
        leaves={2: [script["leaver"]]},
    )
    for _ in range(3):
        net.step_round()
    return net


@given(script=shared_list_scripts())
@example(script=SHARED_LIST_TRAPS[0])
@example(script=SHARED_LIST_TRAPS[1])
@example(script=SHARED_LIST_TRAPS[2])
@example(script=SHARED_LIST_TRAPS[3])
@example(script=SHARED_LIST_TRAPS[4])
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_shared_action_lists_group_like_the_twin(script):
    """Nodes that return one action object are grouped by their rows too.

    Every recipient's inbox lists what its per-destination twin's lists,
    and two recipients share an inbox object exactly when their row lists
    are equal and hashable, whether a row came by broadcast or by unicast.
    """

    grouped = _run_shared_script(script)
    with per_destination_twin():
        twin = _run_shared_script(script)
    by_node = _sends_by_node(script)
    for round_index in (2, 3):
        rows = expected_rows(by_node, round_index)
        inboxes = {
            node: grouped.process(node).inboxes[round_index] for node in rows
        }
        for node, inbox in inboxes.items():
            theirs = twin.process(node).inboxes[round_index]
            assert list(inbox.items()) == list(theirs.items())
        for first, second in combinations(rows, 2):
            equal = rows[first] == rows[second] and _hashable(rows[first])
            assert (inboxes[first] is inboxes[second]) == equal, (
                round_index, first, second
            )


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
    _outcome, rounds = delivery_per_round(spec)
    assert any(r.recipients > 1 for r in rounds)
    assert all(r.inboxes == r.recipients for r in rounds)


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
