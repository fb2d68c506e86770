"""Property suite pinning every tally against a scalar reference.

:mod:`repro.core.tally` computes each support tally once over an inbox's
columns.  This module keeps the direct loop over ``inbox.items()`` that
the tallies replaced as its reference model, and requires the two to be
indistinguishable to protocol code: same counts (as built-in ``int``),
same keys, and — critically, because parallel consensus derives
instance-creation order (and through it stored-output pickle bytes) from
the support dict order — the same first-occurrence *insertion order*.
Hypothesis drives both over randomised rounds: random sender sets,
duplicate payloads within a sender's batch, equal payloads across
senders, empty rounds, mixed payload types, senders interleaved the way
delayed delivery mixes batches, and filtered known-sender subsets.
"""

from __future__ import annotations

from dataclasses import make_dataclass
from itertools import zip_longest

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import tally
from repro.core.parallel_consensus import (
    PCInput,
    PCNoPreference,
    PCNoStrongPreference,
    PCPrefer,
    _classify,
)
from repro.core.reliable_broadcast import Echo, Present
from repro.core.consensus import ConsensusInput
from repro.core.rotor_coordinator import CandidateGossip, RotorEcho, RotorInit
from repro.sim.messages import Inbox

COMMON = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

# A deliberately narrow payload universe so collisions (several senders
# sending equal payloads, one sender repeating itself) are common.
PAYLOADS = st.one_of(
    st.builds(Echo, message=st.integers(0, 2), source=st.integers(0, 2)),
    st.builds(ConsensusInput, value=st.sampled_from(["a", "b", 0, 1])),
    st.builds(
        CandidateGossip,
        adds=st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple),
    ),
    st.builds(RotorEcho, candidate=st.integers(0, 4)),
    st.builds(RotorInit),
    st.builds(
        PCInput, instance=st.integers(0, 2), value=st.sampled_from(["x", "y"])
    ),
    st.builds(
        PCPrefer, instance=st.integers(0, 2), value=st.sampled_from(["x", "y"])
    ),
    st.builds(PCNoPreference, instance=st.integers(0, 2)),
    st.builds(PCNoStrongPreference, instance=st.integers(0, 2)),
)

ROUNDS = st.lists(
    st.tuples(
        st.integers(0, 9),  # sender
        st.lists(PAYLOADS, min_size=0, max_size=4),
    ),
    min_size=0,
    max_size=8,
    unique_by=lambda item: item[0],
)


# ---------------------------------------------------------------------------
# The scalar reference: direct loops over ``inbox.items()``
# ---------------------------------------------------------------------------


def ref_field_support(inbox, message_type, fields):
    single = fields[0] if len(fields) == 1 else None
    support = {}
    for _sender, payload in inbox.items():
        if isinstance(payload, message_type):
            if single is not None:
                key = getattr(payload, single)
            else:
                key = tuple(getattr(payload, name) for name in fields)
            support[key] = support.get(key, 0) + 1
    return support


def ref_candidate_support(inbox, gossip_type, echo_type):
    sets = {}
    for sender, payload in inbox.items():
        if isinstance(payload, gossip_type):
            for candidate in payload.adds:
                sets.setdefault(candidate, set()).add(sender)
        elif isinstance(payload, echo_type):
            sets.setdefault(payload.candidate, set()).add(sender)
    return {candidate: len(senders) for candidate, senders in sets.items()}


def ref_init_senders(inbox, init_type):
    return tuple(
        sorted(
            {
                sender
                for sender, payload in inbox.items()
                if isinstance(payload, init_type)
            }
        )
    )


def ref_scan_index(inbox, classify):
    support = {}
    spoken_sets = {}
    for sender, payload in inbox.items():
        tag = classify(payload)
        if tag is None:
            continue
        key, value = tag
        spoken_sets.setdefault(key, set()).add(sender)
        if value is tally.NO_VALUE:
            continue
        per_value = support.setdefault(key, {})
        per_value[value] = per_value.get(value, 0) + 1
    return support, {key: frozenset(s) for key, s in spoken_sets.items()}


def ref_control_pairs(inbox, bulk_types):
    return tuple(
        (sender, payload)
        for sender, payload in inbox.items()
        if type(payload) not in bulk_types
    )


# ---------------------------------------------------------------------------
# Inbox builds
# ---------------------------------------------------------------------------


def by_sender_inbox(round_batches):
    return Inbox({sender: batch for sender, batch in round_batches})


def interleaved_inbox(round_batches):
    """The same round with senders interleaved (one payload each in turn)."""

    columns = [[(sender, p) for p in batch] for sender, batch in round_batches]
    return Inbox.from_pairs(
        pair for turn in zip_longest(*columns) for pair in turn if pair is not None
    )


def expected_items(round_batches):
    """The model's round: each sender's distinct payloads, first occurrence."""

    return [
        (sender, payload)
        for sender, batch in round_batches
        for payload in dict.fromkeys(batch)
    ]


def inboxes(round_batches):
    """Every build of one round that tallies must handle identically."""

    return by_sender_inbox(round_batches), interleaved_inbox(round_batches)


def assert_same_order(result, reference):
    assert list(result.items()) == list(reference.items())
    for value in result.values():
        assert type(value) is int


def check_field_support(inbox):
    for message_type in (ConsensusInput, PCInput):
        assert_same_order(
            tally.value_support(inbox, message_type),
            ref_field_support(inbox, message_type, ("value",)),
        )
    assert_same_order(
        tally.field_support(inbox, Echo, ("message", "source")),
        ref_field_support(inbox, Echo, ("message", "source")),
    )


def check_candidate_support(inbox):
    # A sender backing one candidate through a gossip *and* an echo (or a
    # duplicated entry inside one ``adds``) must count exactly once.
    support = tally.candidate_support(inbox, CandidateGossip, RotorEcho)
    assert_same_order(support, ref_candidate_support(inbox, CandidateGossip, RotorEcho))


def check_init_senders_and_scan_index(inbox):
    inits = tally.init_senders(inbox, RotorInit)
    assert inits == ref_init_senders(inbox, RotorInit)
    assert all(type(s) is int for s in inits)
    support, spoken = tally.scan_index(inbox, _classify)
    ref_support, ref_spoken = ref_scan_index(inbox, _classify)
    assert list(support) == list(ref_support)
    for key in ref_support:
        assert_same_order(support[key], ref_support[key])
    assert list(spoken.items()) == list(ref_spoken.items())
    for speakers in spoken.values():
        assert all(type(s) is int for s in speakers)


def check_control_pairs(inbox):
    bulk = (CandidateGossip, Echo)
    assert tally.control_pairs(inbox, bulk) == ref_control_pairs(inbox, bulk)
    # No-bulk and all-bulk filters are the degenerate cases.
    assert tally.control_pairs(inbox, ()) == tuple(inbox.items())
    every_type = tuple({type(p) for _, p in inbox.items()})
    assert tally.control_pairs(inbox, every_type) == ()


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@COMMON
@given(ROUNDS)
def test_columnar_inbox_matches_plain_inbox(round_batches):
    """A build from staged rows, as the network files them, and
    ``Inbox(by_sender)`` hold the same round."""

    staged = [
        (sender, payload, None)
        for sender, batch in round_batches
        for payload in batch
    ]
    from_rows = Inbox.from_pairs((sender, payload) for sender, payload, _ in staged)
    plain = by_sender_inbox(round_batches)
    expected = expected_items(round_batches)
    for inbox in (from_rows, plain, interleaved_inbox(round_batches)):
        assert list(inbox.items()) == expected
        assert inbox.senders == plain.senders == {s for s, _ in expected}
        assert len(inbox) == len(plain) == len(expected)
        assert bool(inbox) == bool(expected)
        for sender, _batch in round_batches:
            assert inbox.payloads_from(sender) == plain.payloads_from(sender)


@COMMON
@given(ROUNDS)
def test_value_and_field_support_agree_including_order(round_batches):
    for inbox in inboxes(round_batches):
        check_field_support(inbox)


@COMMON
@given(ROUNDS)
def test_candidate_support_agrees_with_pair_dedup(round_batches):
    for inbox in inboxes(round_batches):
        check_candidate_support(inbox)


@COMMON
@given(ROUNDS)
def test_init_senders_and_scan_index_agree(round_batches):
    for inbox in inboxes(round_batches):
        check_init_senders_and_scan_index(inbox)


@COMMON
@given(ROUNDS)
def test_control_pairs_preserve_row_order(round_batches):
    for inbox in inboxes(round_batches):
        check_control_pairs(inbox)


@COMMON
@given(ROUNDS, st.sets(st.integers(0, 9)))
def test_tallies_agree_on_restricted_subsets(round_batches, allowed):
    allowed = frozenset(allowed)
    for inbox in inboxes(round_batches):
        view = inbox.restricted(allowed)
        assert list(view.items()) == [
            (sender, payload)
            for sender, payload in inbox.items()
            if sender in allowed
        ]
        check_field_support(view)
        check_candidate_support(view)
        check_init_senders_and_scan_index(view)
        check_control_pairs(view)


def test_from_staged_falls_back_for_non_contiguous_or_unhashable():
    """The one builder groups interleaved senders and files unhashable
    payloads by equality, collapsing a sender's duplicates."""

    interleaved = Inbox.from_pairs(
        [(1, RotorInit()), (2, RotorEcho(4)), (1, RotorEcho(3)), (2, RotorInit()),
         (1, RotorInit())]
    )
    assert list(interleaved.items()) == [
        (1, RotorInit()), (1, RotorEcho(3)), (2, RotorEcho(4)), (2, RotorInit())
    ]
    assert interleaved.payloads_from(1) == (RotorInit(), RotorEcho(3))
    # The payload table follows row order, not arrival order.
    _senders, _rows, table = interleaved.columns()
    assert table == [RotorInit(), RotorEcho(3), RotorEcho(4)]
    assert tally.candidate_support(interleaved, CandidateGossip, RotorEcho) == {3: 1, 4: 1}
    assert tally.init_senders(interleaved, RotorInit) == (1, 2)

    unhashable = Inbox.from_pairs([(1, [1, 2, 3]), (2, [1, 2, 3]), (1, [1, 2, 3])])
    assert unhashable.payloads_from(1) == ([1, 2, 3],)
    assert unhashable.payloads_from(2) == ([1, 2, 3],)
    assert len(unhashable) == 2
    assert unhashable.columns()[1] == [0, 0]

    # Equal payloads from different senders share the first sender's
    # instance, whichever path delivered them.
    first, second = ConsensusInput("a"), ConsensusInput("a")
    shared = Inbox.from_pairs([(1, first), (2, second)])
    assert shared.payloads_from(2)[0] is first


def test_empty_round_tallies():
    empty = Inbox.from_pairs([])
    assert not empty and len(empty) == 0
    assert list(empty.items()) == []
    assert tally.value_support(empty, ConsensusInput) == {}
    assert tally.candidate_support(empty, CandidateGossip, RotorEcho) == {}
    assert tally.init_senders(empty, RotorInit) == ()
    support, spoken = tally.scan_index(empty, _classify)
    assert support == {} and spoken == {}
    assert tally.control_pairs(empty, (Echo,)) == ()


def test_each_call_on_one_inbox_gets_the_result_of_its_own_types():
    """A tally is keyed by its build and every argument, so a call with
    other types on the same inbox is not handed an earlier call's result."""

    Vouch = make_dataclass("Vouch", ["candidate"], frozen=True)  # a second echo type
    inbox = Inbox.from_pairs([
        (1, RotorInit()), (2, Present()), (3, Present()),
        (1, RotorEcho(7)), (2, Vouch(8)), (3, CandidateGossip(adds=(9,))),
    ])
    assert tally.init_senders(inbox, RotorInit) == (1,)
    assert tally.init_senders(inbox, Present) == (2, 3)
    assert tally.candidate_support(inbox, CandidateGossip, RotorEcho) == {7: 1, 9: 1}
    assert tally.candidate_support(inbox, CandidateGossip, Vouch) == {8: 1, 9: 1}


def test_profile_accumulates_build_time():
    tally.reset_profile()
    before = tally.profile_snapshot()
    assert before["builds"] == 0
    inbox = Inbox.from_pairs([(1, ConsensusInput("a")), (2, ConsensusInput("a"))])
    tally.value_support(inbox, ConsensusInput)
    tally.value_support(inbox, ConsensusInput)  # memoized: no second build
    after = tally.profile_snapshot()
    assert after["builds"] == 1
    assert after["seconds"] >= 0.0
    tally.reset_profile()


def test_backend_vocabulary_is_gone():
    """One tally implementation: nothing left to select or report."""

    for name in ("TALLY_BACKENDS", "backend_for", "_np_columns", "_rowcounts"):
        assert not hasattr(tally, name)
