"""Reference properties for the parallel-consensus step and total order's routing.

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
  of the coordinator's payloads.

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
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec, run_scenario
from repro.core import total_order
from repro.core.parallel_consensus import (
    BOTTOM,
    PCInput,
    PCOpinion,
    PCPrefer,
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
from repro.core.total_order import PCBatch, _route_instances
from repro.sim.messages import Inbox

from make_delayed_digests import fingerprint

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
