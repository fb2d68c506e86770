"""Algorithm 3 — O(f)-round consensus in the id-only model (Section VII).

Every correct node starts with an input value and all correct nodes must
terminate with a common output that was the input of some correct node
(with the usual validity strengthening: unanimous inputs force that value).

Structure (following the pseudocode's next-round markers): two
initialization rounds build the rotor-coordinator candidate set and freeze
``nv``; afterwards the protocol proceeds in *phases* of five rounds:

====== ============================================================
round  action
====== ============================================================
1      broadcast ``input(x_v)``
2      on a ``2·nv/3`` quorum for a value ``x``: broadcast ``prefer(x)``
3      on an ``nv/3`` quorum for ``prefer(x)``: adopt ``x``;
       on a ``2·nv/3`` quorum: broadcast ``strongprefer(x)``
4      remember the ``strongprefer`` support; execute one
       rotor-coordinator selection round (the selected coordinator
       broadcasts its current opinion)
5      if the remembered ``strongprefer`` support is below ``nv/3``:
       adopt the coordinator's opinion; if it reaches ``2·nv/3``:
       decide and halt
====== ============================================================

The paper's missing-message substitution rule is implemented exactly as
stated below Algorithm 3: a node that counted towards ``nv`` during
initialization but *never* sent anything inside the while-loop is assumed,
in every round, to have sent whatever the local node itself sent in the
previous round.  (A broader per-round substitution — filling in for any
node that skipped the current round — is unsound: a split-vote adversary
can then push two correct nodes over conflicting ``2·nv/3`` thresholds;
the regression test ``test_consensus_split_vote_agreement`` guards this.)
Messages from nodes that did not count towards ``nv`` are discarded.

Termination detection: the pseudocode terminates a node the moment it sees
a ``2·nv/3`` strongprefer quorum, but a node that simply stops sending
could leave the others one voice short of their own quorum when
``n = 3f + 1``.  The paper notes (Section V) that consensus "implements its
own termination mechanism, where few additional messages per round are
used to detect termination"; we realise that by having a decided node keep
participating (with its opinion pinned to the decided value) for one extra
phase before halting — by Lemma 10 every other correct node shares that
opinion, so they all decide at the end of the following phase while the
early decider is still speaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from ..sim.messages import Broadcast, Inbox, NodeId, Outgoing, Payload
from ..sim.node import KnownSenders, Process, RoundView
from .quorums import one_third, pick_supported, two_thirds
from .rotor_coordinator import Opinion, RotorCoordinatorCore
from .tally import value_support

__all__ = [
    "ConsensusInput",
    "Prefer",
    "StrongPrefer",
    "ConsensusProcess",
    "PHASE_LENGTH",
    "INIT_ROUNDS",
]

#: Rounds per phase of the while-loop (see the table in the module docstring).
PHASE_LENGTH = 5
#: Rounds spent initializing the rotor-coordinator and ``nv``.
INIT_ROUNDS = 2
#: How many extra phases a decided node keeps participating before halting.
LINGER_PHASES = 1


@dataclass(frozen=True)
class ConsensusInput:
    """``input(x)`` — the value a node currently holds, broadcast in round 1."""

    value: Hashable


@dataclass(frozen=True)
class Prefer:
    """``prefer(x)`` — broadcast after a ``2·nv/3`` quorum of ``input(x)``."""

    value: Hashable


@dataclass(frozen=True)
class StrongPrefer:
    """``strongprefer(x)`` — broadcast after a ``2·nv/3`` quorum of ``prefer(x)``."""

    value: Hashable


class ConsensusProcess(Process):
    """A correct participant of Algorithm 3.

    ``substitution`` selects the missing-message rule:

    * ``"narrow"`` (default, the paper's wording): only nodes that never
      spoke inside the while-loop are substituted for;
    * ``"broad"``: any known sender that skipped the current round is
      substituted for.  This variant is *unsound* — the substitution
      in effect lets the local node vote on behalf of silent peers, and a
      split-vote adversary can then drive two correct nodes over
      conflicting ``2·nv/3`` quorums.  It exists only for ablation A1
      (:func:`repro.harness.ablations.a1_substitution_rule`), which
      demonstrates why the narrow rule matters.
    """

    def __init__(
        self,
        node_id: NodeId,
        *,
        input_value: Hashable,
        substitution: str = "narrow",
    ) -> None:
        super().__init__(node_id)
        if substitution not in ("narrow", "broad"):
            raise ValueError("substitution must be 'narrow' or 'broad'")
        self._substitution = substitution
        self._input = input_value
        self._opinion: Hashable = input_value
        self._known = KnownSenders()
        self._rotor = RotorCoordinatorCore(node_id)
        self._output: Hashable | None = None
        self._phase = 0
        # Bookkeeping for the substitution rule: the payloads this node
        # broadcast in the previous round, keyed by message type, and the
        # known senders that have spoken at least once inside the
        # while-loop (only the forever-silent ones are substituted for).
        # Like ``nv``, the loop senders are a KnownSenders view: its union
        # is memoized on the shared inbox and interned, so nodes with equal
        # views share one object instead of each updating its own set.
        self._sent_last_round: dict[type, Payload] = {}
        self._loop = KnownSenders()
        # strongprefer support observed in phase round 4, consumed in round 5.
        self._pending_strongprefer: dict[Hashable, int] = {}
        # Rounds left to keep participating after deciding (termination
        # detection; see the module docstring).
        self._linger_rounds: int | None = None

    # -- public results -----------------------------------------------------------

    @property
    def input_value(self) -> Hashable:
        return self._input

    @property
    def opinion(self) -> Hashable:
        """The node's current opinion ``x_v`` (equals the output once decided)."""

        return self._opinion

    @property
    def output(self) -> Hashable | None:
        return self._output

    @property
    def nv(self) -> int:
        return self._known.count

    @property
    def phase(self) -> int:
        """The 1-based index of the phase currently being executed."""

        return self._phase

    @property
    def rotor(self) -> RotorCoordinatorCore:
        return self._rotor

    @property
    def silent_count(self) -> int:
        """How many known senders the narrow substitution rule fills in for:
        those never heard inside the while-loop.  The loop senders are
        read from inboxes filtered to the frozen known set, so they are a
        subset of it and the count is a difference of sizes."""

        return self._known.count - self._loop.count

    # -- helpers --------------------------------------------------------------------

    def _filtered(self, inbox: Inbox) -> Inbox:
        """Discard messages from senders that did not count towards ``nv``.

        Delegates to :meth:`~repro.sim.messages.Inbox.restricted`: when
        nothing needs stripping the (possibly shared) inbox is reused
        as-is, and otherwise the restriction — and therefore every index
        memoized on it, such as the rotor echo index — is built once per
        round and shared by all nodes with the same ``nv`` view instead of
        being rebuilt per receiver.
        """

        return inbox.restricted(self._known.ids)

    def _support(
        self, inbox: Inbox, message_type: type, *, substitute: bool = True
    ) -> dict[Hashable, int]:
        """Count distinct supporters per value for one message type.

        Implements the substitution rule: known senders that have never
        spoken inside the while-loop are counted as having sent this node's
        own most recent message of ``message_type`` (if this node sent one
        in the previous round).
        """

        # The tally is memoized on the (shared) inbox — the per-value counts
        # are built once per round, not once per node.  Copy before applying
        # the node-local substitution so the shared dict stays pristine.
        counts = dict(value_support(inbox, message_type))
        if substitute:
            own = self._sent_last_round.get(message_type)
            if own is not None:
                if self._substitution == "narrow":
                    silent = self.silent_count
                else:  # "broad" — ablation only, see the class docstring
                    senders_of_type = {
                        sender
                        for sender, payload in inbox.items()
                        if isinstance(payload, message_type)
                    }
                    silent = len(self._known.ids - senders_of_type - {self.node_id})
                if silent:
                    counts[own.value] = counts.get(own.value, 0) + silent
        return counts

    def _broadcast(self, payloads: Sequence[Payload]) -> list[Outgoing]:
        """Broadcast ``payloads`` and remember them for the substitution rule."""

        self._sent_last_round = {type(p): p for p in payloads}
        return [Broadcast(p) for p in payloads]

    # -- state machine ------------------------------------------------------------------

    def step(self, view: RoundView) -> Sequence[Outgoing]:
        round_index = view.round_index
        if self._output is not None:
            # Termination detection: keep speaking for one extra phase so
            # that slower correct nodes still reach their quorums, then stop.
            self._linger_rounds -= 1
            if self._linger_rounds < 0:
                self.halt()
                return ()
        if round_index == 1:
            return self._broadcast(self._rotor.init_round_one())
        if round_index == 2:
            self._known.observe(view.inbox)
            return self._broadcast(self._rotor.init_round_two(view.inbox))

        if round_index == 3:
            # The inbox of round 3 still belongs to initialization: it holds
            # the rotor echoes sent in round 2.  Finish building nv here and
            # freeze it before the first phase round is processed.
            self._known.observe(view.inbox)
            self._known.freeze()

        inbox = self._filtered(view.inbox)
        if round_index > 3 and self.silent_count:
            # Messages delivered from round 4 onwards were sent inside the
            # while-loop; their senders are not eligible for substitution.
            self._loop.observe(inbox)
        relays = self._rotor.observe(inbox)
        phase_round = (round_index - INIT_ROUNDS - 1) % PHASE_LENGTH + 1

        if phase_round == 1:
            self._phase += 1
            payloads = list(relays) + [ConsensusInput(self._opinion)]
            return self._broadcast(payloads)

        if phase_round == 2:
            payloads = list(relays)
            support = self._support(inbox, ConsensusInput)
            winner, _count = pick_supported(support, two_thirds(self.nv))
            if winner is not None:
                payloads.append(Prefer(winner))
            return self._broadcast(payloads)

        if phase_round == 3:
            payloads = list(relays)
            support = self._support(inbox, Prefer)
            # One pass: the 2nv/3 pick is the nv/3 winner if it gets there.
            adopt, count = pick_supported(support, one_third(self.nv))
            if adopt is not None:
                self._opinion = adopt
            strong = adopt if count >= two_thirds(self.nv) else None
            if strong is not None:
                payloads.append(StrongPrefer(strong))
            return self._broadcast(payloads)

        if phase_round == 4:
            # Remember the strongprefer support for the round-5 checks, then
            # run this phase's rotor-coordinator selection round.
            self._pending_strongprefer = self._support(inbox, StrongPrefer)
            outcome = self._rotor.execute_selection(
                inbox, self._opinion, round_index=round_index
            )
            payloads = list(relays) + list(outcome.payloads)
            return self._broadcast(payloads)

        # phase_round == 5
        support = self._pending_strongprefer
        self._pending_strongprefer = {}
        weak, count = pick_supported(support, one_third(self.nv))
        decide = weak if count >= two_thirds(self.nv) else None
        coordinator = self._rotor.last_selected
        if weak is None and coordinator is not None:
            for payload in inbox.payloads_from(coordinator):
                if isinstance(payload, Opinion):
                    self._opinion = payload.value
                    break
        if decide is not None and self._output is None:
            self._output = decide
            self._opinion = decide
            self._linger_rounds = LINGER_PHASES * PHASE_LENGTH
        return self._broadcast(list(relays))
