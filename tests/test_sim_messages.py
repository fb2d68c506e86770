"""Unit tests for the message model (Inbox, delivery causality, wire format)."""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.sim import (
    Broadcast,
    DelayModel,
    FixedScheduleDelay,
    Inbox,
    Process,
    SynchronousNetwork,
    Unicast,
)
from repro.sim.messages import (
    cached_payload_hash,
    clear_intern_table,
    intern_payload,
    intern_table_size,
    payload_nbytes,
)


class TestInbox:
    def test_empty_inbox(self):
        inbox = Inbox.empty()
        assert len(inbox) == 0
        assert not inbox
        assert inbox.senders == frozenset()
        assert inbox.payloads_from(1) == ()

    def test_empty_inboxes_do_not_outlive_their_round(self):
        # Protocols apply derivations on inboxes, so an empty inbox shared
        # process-wide would keep collecting cached results for as long as
        # the process lives.
        builds = []
        Inbox.empty().apply(builds.append)
        Inbox.empty().apply(builds.append)
        assert len(builds) == 2

        class Listener(Process):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.inboxes = []

            def step(self, view):
                self.inboxes.append(view.inbox)
                return ()

        net = SynchronousNetwork([Listener(1), Listener(2)])
        for _ in range(3):
            net.step_round()
        first, second = net.process(1).inboxes, net.process(2).inboxes
        # One empty inbox per round, shared by that round's recipients.
        assert all(mine is theirs for mine, theirs in zip(first, second))
        assert len({id(inbox) for inbox in first}) == 3

    def test_groups_by_sender(self):
        inbox = Inbox.from_pairs([(1, "a"), (2, "b"), (1, "c")])
        assert inbox.senders == {1, 2}
        assert set(inbox.payloads_from(1)) == {"a", "c"}
        assert inbox.payloads_from(2) == ("b",)

    def test_duplicates_from_same_sender_in_a_round_are_discarded(self):
        # Section IV: "duplicate messages from the same node in a round are
        # simply discarded".
        inbox = Inbox.from_pairs([(1, "x"), (1, "x"), (1, "x")])
        assert len(inbox) == 1
        assert inbox.payloads_from(1) == ("x",)

    def test_distinct_payloads_from_same_sender_are_kept(self):
        inbox = Inbox.from_pairs([(1, "x"), (1, "y")])
        assert len(inbox) == 2

    def test_unhashable_payloads_fall_back_without_losing_messages(self):
        # unhashable payloads break the model's contract but must degrade to
        # the ordered dedup scan, even when handed a one-shot iterator
        inbox = Inbox({1: iter([[9], "a", [9]])})
        assert inbox.payloads_from(1) == ([9], "a")
        assert len(inbox) == 2

    def test_unhashable_fallback_preserves_first_occurrence_order(self):
        # The TypeError fallback must behave exactly like the hash-based
        # dedup: first occurrence wins, later duplicates are discarded.
        inbox = Inbox({1: [[2], [1], [2], [3], [1]]})
        assert inbox.payloads_from(1) == ([2], [1], [3])
        assert len(inbox) == 3

    def test_unhashable_fallback_is_per_sender(self):
        # One sender with unhashable payloads must not disturb hash-based
        # dedup for other senders in the same inbox.
        inbox = Inbox({1: [[9], [9]], 2: ["x", "x", "y"]})
        assert inbox.payloads_from(1) == ([9],)
        assert inbox.payloads_from(2) == ("x", "y")
        assert inbox.senders == {1, 2}

    def test_single_unhashable_payload_takes_the_single_payload_fast_path(self):
        # A lone unhashable payload is filed by equality against the
        # payload table and kept as the sender's only message.
        inbox = Inbox({1: [[7]]})
        assert inbox.payloads_from(1) == ([7],)
        assert len(inbox) == 1
        assert [7] in inbox.payloads_from(1)

    def test_items_iteration_and_contains(self):
        inbox = Inbox.from_pairs([(1, "x"), (2, "y")])
        assert sorted(inbox.items()) == [(1, "x"), (2, "y")]
        assert 1 in inbox and 3 not in inbox

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3)), min_size=1, max_size=40
        )
    )
    def test_property_every_pair_is_retrievable(self, pairs):
        inbox = Inbox.from_pairs(pairs)
        for sender, payload in pairs:
            assert payload in inbox.payloads_from(sender)


@cached_payload_hash
@dataclass(frozen=True)
class _WirePayload:
    values: tuple[int, ...]


class TestWireFormat:
    def test_cached_hash_matches_structural_hash_and_is_cached(self):
        payload = _WirePayload((1, 2, 3))
        first = hash(payload)
        assert first == hash(_WirePayload((1, 2, 3)))
        assert payload.__dict__["_wire_hash"] == first
        assert hash(payload) == first

    def test_cached_hash_is_stripped_on_pickling(self):
        # String hashing is salted per process, so a cached hash must never
        # travel to the sweep workers inside a pickle.
        payload = _WirePayload((1, 2))
        hash(payload)
        payload_nbytes(payload)
        clone = pickle.loads(pickle.dumps(payload))
        assert "_wire_hash" not in clone.__dict__
        assert "_wire_nbytes" not in clone.__dict__
        assert clone == payload

    def test_interning_returns_one_canonical_instance(self):
        clear_intern_table()
        first = intern_payload(_WirePayload((5, 6)))
        second = intern_payload(_WirePayload((5, 6)))
        other = intern_payload(_WirePayload((5, 7)))
        assert first is second
        assert other is not first
        assert intern_table_size() == 2

    def test_interning_passes_unhashable_values_through(self):
        unhashable = [1, 2]
        assert intern_payload(unhashable) is unhashable

    def test_payload_nbytes_is_positive_and_cached(self):
        payload = _WirePayload(tuple(range(100)))
        small = _WirePayload((1,))
        assert payload_nbytes(payload) > payload_nbytes(small) > 0
        assert payload.__dict__["_wire_nbytes"] == payload_nbytes(payload)
        # builtins without a __dict__ are measured but not cached
        assert payload_nbytes("hello") > 0

    def test_restricted_reuses_inbox_when_nothing_to_strip(self):
        inbox = Inbox.from_pairs([(1, "a"), (2, "b")])
        assert inbox.restricted(frozenset({1, 2, 3})) is inbox
        # No self-cycle, which would leave the round to the cyclic collector.
        assert all(value is not inbox for value in inbox._memo.values())

    def test_restricted_is_memoized_per_allowed_set(self):
        inbox = Inbox.from_pairs([(1, "a"), (2, "b"), (3, "c")])
        allowed = frozenset({1, 2})
        first = inbox.restricted(allowed)
        second = inbox.restricted(frozenset({1, 2}))
        assert first is second  # equal keys share one restriction
        assert first.senders == {1, 2}
        assert first.payloads_from(3) == ()
        other = inbox.restricted(frozenset({3}))
        assert other.senders == {3}
        assert other is not first


class Greeter(Process):
    """Broadcasts once in round 1 and records what it hears each round."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.heard = {}

    def step(self, view):
        self.heard[view.round_index] = sorted(view.inbox.items())
        return [Broadcast("hi")] if view.round_index == 1 else ()


class TestEnvelope:
    """Causality of messages in flight, checked when the network stages them."""

    def test_delivery_must_be_after_send(self):
        class SameRound(DelayModel):
            def delivery_round(self, sender, dest, sent_round, rng):
                return sent_round

        net = SynchronousNetwork([Greeter(1), Greeter(2)], delay_model=SameRound())
        message = r"in the round it was sent \(sent 1, deliver 1\)"
        with pytest.raises(ValueError, match=message):
            net.step_round()

    def test_valid_envelope(self):
        net = SynchronousNetwork(
            [Greeter(1), Greeter(2)], delay_model=FixedScheduleDelay()
        )
        net.step_round()
        assert net.pending_messages() == 4
        net.step_round()
        assert net.pending_messages() == 0
        assert net.process(1).heard == {1: [], 2: [(1, "hi"), (2, "hi")]}


class TestOutgoing:
    def test_broadcast_and_unicast_are_value_types(self):
        assert Broadcast("m") == Broadcast("m")
        assert Unicast(2, "m") == Unicast(2, "m")
        assert Broadcast("m") != Unicast(2, "m")
