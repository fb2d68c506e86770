"""Tests for Algorithm 2 — the rotor-coordinator."""

from __future__ import annotations

import pytest

from repro.analysis.properties import holds, rotor_good_round
from repro.core.quorums import max_faults_tolerated
from repro.core.rotor_coordinator import (
    GOSSIP_ANCHOR_PERIOD,
    CandidateGossip,
    GossipDecoder,
    GossipEncoder,
    Opinion,
    RotorCoordinatorCore,
    RotorEcho,
    RotorInit,
)
from repro.api import ScenarioSpec, build_system
from repro.sim import Inbox, all_correct_halted


def build_rotor(n, f, *, strategy, seed):
    return build_system(
        ScenarioSpec(protocol="rotor-coordinator", n=n, f=f, adversary=strategy, seed=seed)
    )


def inbox(pairs):
    return Inbox.from_pairs(pairs)


def gossiped(payloads):
    """The candidates announced by a round's delta-coded gossip payloads."""

    announced: list[int] = []
    for payload in payloads:
        assert isinstance(payload, CandidateGossip)
        announced.extend(payload.adds)
    return announced


class TestCore:
    def test_init_rounds(self):
        core = RotorCoordinatorCore(1)
        assert core.init_round_one() == [RotorInit()]
        echoes = core.init_round_two(inbox([(2, RotorInit()), (3, RotorInit()), (3, "junk")]))
        # The whole echo wave travels as one delta-coded gossip payload.
        assert echoes == [CandidateGossip(adds=(2, 3))]

    def test_candidate_added_on_two_thirds_quorum(self):
        core = RotorCoordinatorCore(1)
        core.init_round_two(inbox([(i, RotorInit()) for i in (1, 2, 3, 4, 5, 6)]))
        relays = core.observe(inbox([(i, RotorEcho(2)) for i in (1, 2, 3, 4)]))
        assert core.candidates == (2,)
        # In the round where the quorum is reached the echo is still relayed
        # (the ``p ∉ Cv`` guard is evaluated before ``p`` joins ``Cv``) …
        assert 2 in gossiped(relays)
        # … but once 2 is a candidate, further echoes for it are not relayed.
        later = core.observe(inbox([(i, RotorEcho(2)) for i in (1, 2, 3, 4)]))
        assert 2 not in gossiped(later)

    def test_relay_on_one_third_quorum_without_adding(self):
        core = RotorCoordinatorCore(1)
        core.init_round_two(inbox([(i, RotorInit()) for i in range(1, 10)]))  # nv = 9
        relays = core.observe(inbox([(i, RotorEcho(7)) for i in (1, 2, 3)]))
        assert gossiped(relays) == [7]
        assert core.candidates == ()

    def test_gossip_and_legacy_echoes_build_identical_candidate_sets(self):
        """decode(encode(·)): gossip support ≡ one RotorEcho per candidate."""

        legacy = RotorCoordinatorCore(1)
        modern = RotorCoordinatorCore(1)
        init = [(i, RotorInit()) for i in (1, 2, 3)]
        legacy.init_round_two(inbox(init))
        modern.init_round_two(inbox(init))
        echoes = {s: (5, 9) for s in (1, 2, 3)}
        legacy.observe(
            inbox([(s, RotorEcho(c)) for s, cs in echoes.items() for c in cs])
        )
        modern.observe(
            inbox([(s, CandidateGossip(adds=cs)) for s, cs in echoes.items()])
        )
        assert legacy.candidates == modern.candidates == (5, 9)

    def test_gossip_anchor_is_not_counted_as_support(self):
        core = RotorCoordinatorCore(1)
        core.init_round_two(inbox([(i, RotorInit()) for i in (1, 2, 3)]))
        # Every sender *anchors* candidate 5 without freshly adding it; a
        # replayed anchor must not manufacture quorum support.
        core.observe(
            inbox([(s, CandidateGossip(adds=(), anchor=(5,))) for s in (1, 2, 3)])
        )
        assert core.candidates == ()

    def test_candidates_kept_sorted_by_identifier(self):
        core = RotorCoordinatorCore(1)
        core.init_round_two(inbox([(i, RotorInit()) for i in (1, 2, 3)]))
        core.observe(inbox([(i, RotorEcho(30)) for i in (1, 2, 3)]))
        core.observe(inbox([(i, RotorEcho(10)) for i in (1, 2, 3)]))
        assert core.candidates == (10, 30)

    def test_selection_rotates_in_identifier_order(self):
        core = RotorCoordinatorCore(1)
        core.init_round_two(inbox([(i, RotorInit()) for i in (1, 2, 3)]))
        core.observe(inbox([(i, RotorEcho(c)) for i in (1, 2, 3) for c in (5, 9)]))
        first = core.execute_selection(Inbox.empty(), "op", round_index=3)
        second = core.execute_selection(Inbox.empty(), "op", round_index=4)
        assert (first.selected, second.selected) == (5, 9)
        assert core.selected == {5, 9}

    def test_reselection_terminates(self):
        core = RotorCoordinatorCore(1)
        core.init_round_two(inbox([(i, RotorInit()) for i in (1, 2, 3)]))
        core.observe(inbox([(i, RotorEcho(5)) for i in (1, 2, 3)]))
        core.execute_selection(Inbox.empty(), "op", round_index=3)
        outcome = core.execute_selection(Inbox.empty(), "op", round_index=4)
        assert outcome.terminated
        assert core.terminated

    def test_self_selection_broadcasts_opinion(self):
        core = RotorCoordinatorCore(5)
        core.init_round_two(inbox([(i, RotorInit()) for i in (1, 2, 3)]))
        core.observe(inbox([(i, RotorEcho(5)) for i in (1, 2, 3)]))
        outcome = core.execute_selection(Inbox.empty(), "mine", round_index=3)
        assert outcome.selected == 5
        assert Opinion("mine") in outcome.payloads

    def test_opinion_accepted_from_previous_coordinator_only(self):
        core = RotorCoordinatorCore(1)
        core.init_round_two(inbox([(i, RotorInit()) for i in (1, 2, 3)]))
        core.observe(inbox([(i, RotorEcho(c)) for i in (1, 2, 3) for c in (5, 9)]))
        core.execute_selection(Inbox.empty(), "op", round_index=3)  # selects 5
        outcome = core.execute_selection(
            inbox([(5, Opinion("from5")), (9, Opinion("from9"))]), "op", round_index=4
        )
        assert outcome.accepted_opinion == "from5"
        assert outcome.opinion_received

    def test_empty_candidate_set_selects_nothing(self):
        core = RotorCoordinatorCore(1)
        outcome = core.execute_selection(Inbox.empty(), "op", round_index=3)
        assert outcome.selected is None
        assert not outcome.terminated


class TestGossipWireFormat:
    def test_encoder_emits_nothing_for_empty_rounds(self):
        encoder = GossipEncoder()
        assert encoder.emit(()) is None
        assert encoder.echoed == frozenset()

    def test_encoder_anchor_periodicity_and_contents(self):
        encoder = GossipEncoder()
        emitted = [encoder.emit((i,)) for i in range(1, 2 * GOSSIP_ANCHOR_PERIOD + 1)]
        for index, gossip in enumerate(emitted, start=1):
            if index % GOSSIP_ANCHOR_PERIOD == 0:
                # The anchor is the full echoed set including this round's
                # adds, sorted — and its digest is precomputed and cached.
                assert gossip.anchor == tuple(range(1, index + 1))
                assert gossip.anchor_digest() == hash(gossip.anchor)
            else:
                assert gossip.anchor is None
                assert gossip.anchor_digest() is None
        assert encoder.echoed == frozenset(range(1, 2 * GOSSIP_ANCHOR_PERIOD + 1))

    def test_round2_gossip_is_interned_across_nodes(self):
        # Every correct node echoes the same init wave, so the round's
        # dominant payload collapses onto one canonical interned instance.
        init = inbox([(i, RotorInit()) for i in (4, 5, 6)])
        first = RotorCoordinatorCore(4).init_round_two(init)
        second = RotorCoordinatorCore(5).init_round_two(init)
        assert first == second
        assert first[0] is second[0]

    def test_decoder_tracks_full_sets_without_gaps(self):
        encoder = GossipEncoder()
        decoder = GossipDecoder()
        for adds in ((1, 2), (3,), (4, 5), (6,)):
            decoder.observe(7, encoder.emit(adds))
            assert decoder.full_set(7) == encoder.echoed
        assert decoder.senders == {7}

    def test_decoder_resyncs_from_anchor_after_dropped_deltas(self):
        encoder = GossipEncoder()
        decoder = GossipDecoder()
        emitted = [encoder.emit((i,)) for i in range(1, GOSSIP_ANCHOR_PERIOD + 1)]
        # Deliver only the first gossip, drop the middle of the stream …
        decoder.observe(7, emitted[0])
        assert decoder.full_set(7) == {1}
        # … then the anchored gossip restores the exact full set.
        assert emitted[-1].anchor is not None
        decoder.observe(7, emitted[-1])
        assert decoder.full_set(7) == encoder.echoed

    def test_anchor_digest_cache_is_stripped_on_pickling(self):
        import pickle

        gossip = CandidateGossip(adds=(1,), anchor=(1,))
        before = pickle.dumps(gossip)
        gossip.anchor_digest()  # populate the cache
        hash(gossip)
        after = pickle.dumps(gossip)
        # Caches must neither inflate the wire size nor carry a
        # process-salted hash into sweep workers.
        assert before == after
        assert pickle.loads(after).__dict__ == {"adds": (1,), "anchor": (1,)}

    def test_decoder_resync_ignores_digest_collisions(self):
        # hash((-1,)) == hash((-2,)) in CPython: a digest-based resync
        # check would skip the resync here.  The decoder must compare sets.
        decoder = GossipDecoder()
        decoder.observe(5, CandidateGossip(adds=(-1,), anchor=(-2,)))
        assert decoder.full_set(5) == {-2, -1}

    def test_decoder_is_deterministic_for_byzantine_streams(self):
        # Arbitrary (even inconsistent) gossips must decode deterministically:
        # anchors replace the state, deltas accumulate onto it.
        stream = (
            CandidateGossip(adds=(9, 1)),
            CandidateGossip(adds=(2,), anchor=(1, 2, 999)),
            CandidateGossip(adds=(3,)),
        )
        decoders = [GossipDecoder() for _ in range(2)]
        for decoder in decoders:
            for gossip in stream:
                decoder.observe(5, gossip)
        assert decoders[0].full_set(5) == decoders[1].full_set(5) == {1, 2, 3, 999}


class TestSystem:
    @pytest.mark.parametrize("n", [4, 7, 10])
    @pytest.mark.parametrize(
        "strategy", ["silent", "rotor-candidate-stuffer", "rotor-split-echo", "rotor-usurper"]
    )
    def test_termination_and_good_round(self, n, strategy):
        f = max_faults_tolerated(n)
        spec = build_rotor(n, f, strategy=strategy, seed=n * 31 + len(strategy))
        run = spec.network.run(max_rounds=6 * n + 20, stop_when=all_correct_halted)
        assert run.stop_reason == "stop_condition", "every correct node must terminate"
        assert holds(rotor_good_round(spec.correct_processes()))

    def test_termination_is_linear_in_n(self):
        rounds = {}
        for n in (4, 10, 16):
            f = max_faults_tolerated(n)
            spec = build_rotor(n, f, strategy="rotor-candidate-stuffer", seed=5)
            run = spec.network.run(max_rounds=10 * n, stop_when=all_correct_halted)
            rounds[n] = run.rounds_executed
        # Theorem 2: O(n) rounds.  Allow a generous constant.
        for n, executed in rounds.items():
            assert executed <= 3 * n + 6

    def test_all_correct_nodes_select_same_sequence_without_adversary(self):
        spec = build_rotor(7, 0, strategy="silent", seed=9)
        spec.network.run(max_rounds=60, stop_when=all_correct_halted)
        histories = [
            tuple(rec.coordinator for rec in spec.network.process(i).selection_history)
            for i in spec.correct_ids
        ]
        assert len(set(histories)) == 1

    def test_candidate_stuffer_cannot_prevent_correct_candidates(self):
        spec = build_rotor(10, 3, strategy="rotor-candidate-stuffer", seed=11)
        spec.network.run(max_rounds=80, stop_when=all_correct_halted)
        for i in spec.correct_ids:
            candidates = set(spec.network.process(i).core.candidates)
            assert set(spec.correct_ids) <= candidates


class TestCandidateMaintenanceAfterSaturation:
    def test_late_echo_quorum_is_accepted_even_when_len_cv_reaches_nv(self):
        """|Cv| >= nv must not stop candidate maintenance.

        Cv can contain nodes outside the local known set (a candidate's own
        messages may never have arrived, while everyone else's echoes did),
        so the candidate count reaching ``nv`` does not mean every *known*
        sender is a candidate.  A later echo quorum for a known-but-slow
        node must still be accepted — a size-based short-circuit here once
        dropped it.
        """

        from repro.core.rotor_coordinator import RotorCoordinatorCore, RotorEcho
        from repro.sim.messages import Inbox

        a, b, c, p, me = 1, 2, 3, 99, 7
        core = RotorCoordinatorCore(me)
        # known = {a, b, c}: only their messages ever arrived.
        core._known.observe(Inbox({a: ["x"], b: ["x"], c: ["x"]}))
        core._known.freeze()
        # Everyone echoes p (whose own init never reached us): p is accepted
        # although p is not a known sender, so |Cv| can reach nv without
        # Cv covering the known set.
        core.observe(Inbox.from_pairs(
            [(a, RotorEcho(p)), (b, RotorEcho(p)), (c, RotorEcho(p)),
             (a, RotorEcho(a)), (b, RotorEcho(a)), (c, RotorEcho(a)),
             (a, RotorEcho(b)), (b, RotorEcho(b)), (c, RotorEcho(b))]
        ))
        assert set(core.candidates) == {a, b, p}
        assert len(core.candidates) >= core.nv
        # The late quorum for known node c must still be accepted.
        core.observe(Inbox.from_pairs(
            [(a, RotorEcho(c)), (b, RotorEcho(c))]
        ))
        assert c in core.candidates
