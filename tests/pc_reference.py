"""The mutable per-node parallel-consensus engine, kept as a reference.

:class:`repro.core.parallel_consensus.ParallelConsensusEngine` keeps its
per-identifier state in one immutable table and shares each phase-round
transition on the inbox.  Before that, every engine kept its own mutable
``_ReferenceState`` per identifier and ran every phase round itself; this
module is that implementation, renamed and without its inbox caches.
``tests/test_step_equivalence.py`` steps both on the same histories and
requires the same payloads, opinions and outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

from repro.core.consensus import INIT_ROUNDS, LINGER_PHASES, PHASE_LENGTH
from repro.core.parallel_consensus import (
    BOTTOM,
    PCInput,
    PCNoPreference,
    PCNoStrongPreference,
    PCOpinion,
    PCPrefer,
    PCStrongPrefer,
)
from repro.core.quorums import one_third, pick_supported, two_thirds
from repro.core.rotor_coordinator import RotorCoordinatorCore
from repro.core.tally import NO_VALUE, scan_index
from repro.sim.messages import Inbox, NodeId, Payload, intern_payload
from repro.sim.node import KnownSenders

_TYPE_INPUT = "input"
_TYPE_PREFER = "prefer"
_TYPE_STRONG = "strongprefer"


@dataclass
class _ReferenceState:
    """Per-identifier EarlyConsensus state."""

    instance: Hashable
    opinion: Hashable
    started_phase: int
    decided: bool = False
    output: Hashable | None = None
    # Most recent message of each type sent by this node for the instance,
    # used by the substitution rule.
    sent: dict[str, Hashable] = field(default_factory=dict)
    # strongprefer support remembered between phase rounds 4 and 5.
    pending_strong: dict[Hashable, int] = field(default_factory=dict)
    # Rounds left to keep speaking after deciding (termination detection).
    linger_rounds: int | None = None

    @property
    def active(self) -> bool:
        """An instance stops speaking once its linger budget is exhausted."""

        if not self.decided:
            return True
        return self.linger_rounds is not None and self.linger_rounds >= 0


#: ``(instance, type_key)`` support index built once per round — see
#: :func:`_classify` and :func:`repro.core.tally.scan_index`.
_ScanIndex = dict[tuple[Hashable, str], dict[Hashable, int]]

#: Spoken-set default for a slot nobody spoke for.
_NOBODY: frozenset[NodeId] = frozenset()

#: Lookup default of the coordinator-opinion index.
_NO_OPINION = object()


def _classify(payload: Payload) -> tuple[tuple[Hashable, str], Hashable] | None:
    """Map one payload to its ``(instance, type)`` slot for the scan index.

    The old per-instance ``_support`` rescanned the full inbox for every
    tracked identifier — O(identifiers × inbox) per round, the dominant
    protocol cost once the total-order workload multiplexes hundreds of
    identifiers.  :func:`repro.core.tally.scan_index` runs this classifier
    once per round over the (possibly shared, possibly columnar) inbox and
    builds both the per-value distinct-sender counts and the "has spoken
    for this type" sets; ``_support`` becomes a dictionary lookup.  The
    explicit ``no…preference`` statements make the sender non-missing for
    the corresponding type without contributing a countable value
    (:data:`repro.core.tally.NO_VALUE`).
    """

    cls = type(payload)
    if cls is PCInput:
        return (payload.instance, _TYPE_INPUT), payload.value
    if cls is PCPrefer:
        return (payload.instance, _TYPE_PREFER), payload.value
    if cls is PCStrongPrefer:
        return (payload.instance, _TYPE_STRONG), payload.value
    if cls is PCNoPreference:
        return (payload.instance, _TYPE_PREFER), NO_VALUE
    if cls is PCNoStrongPreference:
        return (payload.instance, _TYPE_STRONG), NO_VALUE
    return None


def _opinion_index(inbox: Inbox, coordinator: NodeId) -> dict[Hashable, Hashable]:
    """``{instance: value}`` of ``coordinator``'s first ``PCOpinion`` per
    instance, in the order it delivered them.

    Phase round 5 looked the opinion up by scanning the coordinator's
    payloads once per undecided instance; the index is built once per
    (inbox, coordinator) and shared by every node that reads it.  An
    unhashable ``instance`` is skipped: it cannot equal the hashable
    identifier of any tracked instance, so the scan never matched it.
    """

    index: dict[Hashable, Hashable] = {}
    for payload in inbox.payloads_from(coordinator):
        if isinstance(payload, PCOpinion):
            try:
                index.setdefault(payload.instance, payload.value)
            except TypeError:
                continue
    return index


class ReferenceEngine:
    """The EarlyConsensus/ParallelConsensus state machine.

    The engine is deliberately *not* a :class:`~repro.sim.node.Process`: the
    dynamic total-ordering protocol embeds one engine per round-instance and
    multiplexes them over the same network rounds.  ``step`` takes the
    engine-local round number (1-based) and the inbox restricted to this
    engine's messages, and returns the payloads to broadcast.

    Parameters
    ----------
    node_id:
        The local node's identifier.
    input_pairs:
        The ``(id, x)`` pairs input at this node.
    allowed_senders:
        When given (the dynamic-network case), only messages from these
        identifiers are considered and ``nv`` is bounded by this set.
    """

    def __init__(
        self,
        node_id: NodeId,
        input_pairs: Mapping[Hashable, Hashable] | None = None,
        *,
        allowed_senders: frozenset[NodeId] | None = None,
    ) -> None:
        self._node_id = node_id
        self._allowed = allowed_senders
        self._known = KnownSenders()
        # Fixed when ``nv`` freezes (local round 3), read by every later
        # step: the sender filter ``known ∩ allowed`` (interned, like the
        # frozen known-sender view, so the shared restriction's key is
        # an identity check), ``nv``, both relative thresholds and
        # whether this node counts itself.  An engine first stepped past
        # round 3 never freezes and filters by ``allowed`` alone.
        self._sender_filter = allowed_senders
        self._nv = 0
        self._one_third = 0.0
        self._two_thirds = 0.0
        self._self_known = False
        self._rotor = RotorCoordinatorCore(node_id)
        self._instances: dict[Hashable, _ReferenceState] = {}
        # The known senders heard inside the while-loop: a KnownSenders
        # view, memoized on the shared inbox and interned like ``nv``'s.
        self._loop = KnownSenders()
        self._phase = 0
        # Incremental bookkeeping so the hot-path queries stay O(1): the
        # number of undecided instances, the decided-but-still-speaking
        # instances (linger window), and the repr-sorted state list (built
        # lazily, invalidated only when an instance is created).
        self._undecided = 0
        self._lingering: list[_ReferenceState] = []
        self._sorted_cache: list[_ReferenceState] | None = None
        # Per-round support index, rebuilt each step from the shared tally.
        self._scan_support: _ScanIndex = {}
        self._scan_spoken: dict[tuple[Hashable, str], frozenset[NodeId]] = {}
        # Input pairs are held here until first touch; _ReferenceState is
        # materialised lazily (first message about the identifier, or the
        # first phase round where the input must speak).  The total-order
        # protocol builds one engine per round with O(n) input pairs, so
        # eager construction was the remaining O(n²) allocation per round —
        # engines that die before their first phase round (run tail,
        # leaving nodes) now never allocate per-identifier state at all.
        self._pending_inputs: dict[Hashable, Hashable] = {
            instance: (value if value is not None else BOTTOM)
            for instance, value in (input_pairs or {}).items()
        }

    # -- introspection ------------------------------------------------------------

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def nv(self) -> int:
        return self._known.count

    @property
    def phase(self) -> int:
        return self._phase

    @property
    def instances(self) -> tuple[Hashable, ...]:
        if self._pending_inputs:
            merged = set(self._instances)
            merged.update(self._pending_inputs)
            return tuple(sorted(merged, key=repr))
        return tuple(sorted(self._instances, key=repr))

    @property
    def rotor(self) -> RotorCoordinatorCore:
        return self._rotor

    def opinion(self, instance: Hashable) -> Hashable | None:
        state = self._instances.get(instance)
        if state is not None:
            return state.opinion
        return self._pending_inputs.get(instance)

    @property
    def all_decided(self) -> bool:
        """True when every tracked instance has decided (vacuously true for
        a node tracking no instances once the first phase has passed)."""

        if self._pending_inputs:
            return False
        if not self._instances:
            return self._phase >= 2
        return self._undecided == 0

    @property
    def idle(self) -> bool:
        """True when no instance will speak again on its own: everything is
        decided and every linger window has closed.  An idle engine emits
        payloads only in reaction to incoming messages (rotor echo relays),
        which lets the total-order protocol stop stepping it entirely."""

        return self.all_decided and not self._lingering

    @property
    def outputs(self) -> dict[Hashable, Hashable]:
        """The decided non-``⊥`` pairs (the parallel-consensus output set)."""

        return {
            state.instance: state.output
            for state in self._instances.values()
            if state.decided and state.output is not None
        }

    # -- helpers ----------------------------------------------------------------------

    def _freeze(self) -> None:
        """Freeze ``nv`` and fix the constants every later step reads."""

        known = self._known
        known.freeze()
        allowed = known.ids
        if self._allowed is not None:
            allowed = intern_payload(allowed & self._allowed)
        self._sender_filter = allowed
        self._nv = nv = known.count
        self._one_third = one_third(nv)
        self._two_thirds = two_thirds(nv)
        self._self_known = self._node_id in known

    def _materialize(
        self, instance: Hashable, opinion: Hashable, started_phase: int
    ) -> _ReferenceState:
        state = _ReferenceState(
            instance=instance, opinion=opinion, started_phase=started_phase
        )
        self._instances[instance] = state
        self._undecided += 1
        self._sorted_cache = None
        return state

    def _ensure_instance(self, instance: Hashable, phase: int) -> _ReferenceState | None:
        """Create the instance state on first touch of an identifier.

        A pending input pair materialises whenever it is touched; a
        message-only identifier is only allowed to start an instance during
        the first phase (rule 1).
        """

        state = self._instances.get(instance)
        if state is not None:
            return state
        pending = self._pending_inputs
        if pending:
            opinion = pending.pop(instance, None)
            if opinion is not None:
                return self._materialize(instance, opinion, started_phase=1)
        if phase > 1:
            return None
        return self._materialize(instance, BOTTOM, started_phase=phase)

    def _scanned_instances(self, type_key: str) -> list[Hashable]:
        """Identifiers that delivered a *valued* message of ``type_key``."""

        return [
            instance for instance, key in self._scan_support if key == type_key
        ]

    def _support(
        self,
        inbox: Inbox,
        instance: Hashable,
        type_key: str,
        state: _ReferenceState,
    ) -> dict[Hashable, int]:
        """Per-value support for one message type of one instance, applying
        the ⊥/own-message substitution rules to the round's scan index."""

        key = (instance, type_key)
        # The scan index is shared (memoized on the inbox): the counts are
        # returned as they are unless a substitution rule adds to them, and
        # only then copied.  Callers must not mutate the result.
        counts = self._scan_support.get(key) or {}
        senders_of_type = self._scan_spoken.get(key, _NOBODY)

        # ``missing`` is ``known − senders_of_type − {self}``.  By the time
        # _support runs (phase rounds only) ``nv`` is frozen and the inbox
        # is filtered to known senders, so ``senders_of_type ⊆ known`` and
        # the *size* of the missing set is pure arithmetic — the set itself
        # is only materialised on the rare substitution path.
        n_missing = self._nv - len(senders_of_type)
        if self._self_known and self._node_id not in senders_of_type:
            n_missing -= 1
        if n_missing > 0:
            if self._phase == 1:
                # First phase: missing senders default to ⊥ (rule 2).
                counts = dict(counts)
                counts[BOTTOM] = counts.get(BOTTOM, 0) + n_missing
            else:
                # Later phases: substitute the node's own most recent message
                # of this type, but only for nodes that have never spoken
                # inside the loop (rule 3, narrowed as in Algorithm 3).
                own = state.sent.get(type_key)
                if own is not None:
                    # |known − spoken − loop senders − {self}|
                    quiet = self._known.ids - senders_of_type - self._loop.ids
                    silent = len(quiet) - (self._node_id in quiet)
                    if silent:
                        counts = dict(counts)
                        counts[own] = counts.get(own, 0) + silent
        return counts

    # -- the round state machine ------------------------------------------------------

    def step(self, local_round: int, inbox: Inbox) -> list[Payload]:
        """Advance one round; return the payloads to broadcast."""

        if local_round == 1:
            self._known.observe(inbox)
            return list(self._rotor.init_round_one())
        if local_round == 2:
            self._known.observe(inbox)
            return list(self._rotor.init_round_two(inbox))
        if local_round == 3:
            self._known.observe(inbox)
            self._freeze()

        # Restriction is memoized on the (possibly shared) inbox keyed by
        # the sender filter, so nodes with the same membership view share
        # one filtered inbox — and one scan index built on it — per round.
        if self._sender_filter is not None:
            inbox = inbox.restricted(self._sender_filter)
        if local_round > 3 and self._loop.count < self._nv:
            # Once every known sender has spoken inside the loop the view
            # can never grow again (the inbox is filtered to known senders).
            self._loop.observe(inbox)
        relays = self._rotor.observe(inbox)
        self._scan_support, self._scan_spoken = scan_index(inbox, _classify)
        phase_round = (local_round - INIT_ROUNDS - 1) % PHASE_LENGTH + 1
        if phase_round == 1:
            self._phase += 1

        payloads: list[Payload] = list(relays)
        handler = {
            1: self._phase_round_one,
            2: self._phase_round_two,
            3: self._phase_round_three,
            4: self._phase_round_four,
            5: self._phase_round_five,
        }[phase_round]
        payloads.extend(handler(inbox, local_round))

        # Linger bookkeeping for decided instances (only the ones still
        # inside their linger window — exhausted instances never reactivate).
        if self._lingering:
            still: list[_ReferenceState] = []
            for state in self._lingering:
                state.linger_rounds -= 1
                if state.linger_rounds >= 0:
                    still.append(state)
            self._lingering = still
        return payloads

    # -- phase rounds -------------------------------------------------------------------

    def _phase_round_one(self, inbox: Inbox, local_round: int) -> list[Payload]:
        payloads: list[Payload] = []
        if self._pending_inputs:
            # First input touch: the input pairs must speak this round, so
            # every still-pending identifier materialises now.
            for instance, opinion in self._pending_inputs.items():
                self._materialize(instance, opinion, started_phase=1)
            self._pending_inputs.clear()
        for state in self._sorted_states():
            if not state.active:
                continue
            if state.opinion != BOTTOM and state.opinion is not None:
                payloads.append(PCInput(state.instance, state.opinion))
                state.sent[_TYPE_INPUT] = state.opinion
        return payloads

    def _phase_round_two(self, inbox: Inbox, local_round: int) -> list[Payload]:
        payloads: list[Payload] = []
        # New identifiers first heard via id:input start an instance now.
        for instance in self._scanned_instances(_TYPE_INPUT):
            self._ensure_instance(instance, self._phase)
        for state in self._sorted_states():
            if not state.active:
                continue
            support = self._support(inbox, state.instance, _TYPE_INPUT, state)
            winner, _count = pick_supported(support, self._two_thirds)
            if winner is not None:
                payloads.append(PCPrefer(state.instance, winner))
                state.sent[_TYPE_PREFER] = winner
            else:
                payloads.append(PCNoPreference(state.instance))
        return payloads

    def _phase_round_three(self, inbox: Inbox, local_round: int) -> list[Payload]:
        payloads: list[Payload] = []
        for instance in self._scanned_instances(_TYPE_PREFER):
            self._ensure_instance(instance, self._phase)
        for state in self._sorted_states():
            if not state.active:
                continue
            support = self._support(inbox, state.instance, _TYPE_PREFER, state)
            # One pass: the 2nv/3 pick is the nv/3 winner if it gets there.
            adopt, count = pick_supported(support, self._one_third)
            if adopt is not None:
                state.opinion = adopt
            strong = adopt if count >= self._two_thirds else None
            if strong is not None:
                payloads.append(PCStrongPrefer(state.instance, strong))
                state.sent[_TYPE_STRONG] = strong
            else:
                payloads.append(PCNoStrongPreference(state.instance))
        return payloads

    def _phase_round_four(self, inbox: Inbox, local_round: int) -> list[Payload]:
        payloads: list[Payload] = []
        for state in self._sorted_states():
            if not state.active:
                continue
            state.pending_strong = self._support(
                inbox, state.instance, _TYPE_STRONG, state
            )
        # One shared rotor-coordinator selection per phase; the selected
        # coordinator publishes a per-instance opinion.
        outcome = self._rotor.execute_selection(
            inbox, None, round_index=local_round
        )
        if outcome.selected == self._node_id:
            for state in self._sorted_states():
                if state.active:
                    payloads.append(PCOpinion(state.instance, state.opinion))
        return payloads

    def _phase_round_five(self, inbox: Inbox, local_round: int) -> list[Payload]:
        payloads: list[Payload] = []
        for instance in self._scanned_instances(_TYPE_STRONG):
            self._ensure_instance(instance, self._phase)
        coordinator = self._rotor.last_selected
        opinions: dict[Hashable, Hashable] | None = None
        for state in self._sorted_states():
            if not state.active:
                continue
            support = state.pending_strong
            state.pending_strong = {}
            weak, count = pick_supported(support, self._one_third)
            decide = weak if count >= self._two_thirds else None
            if weak is None and coordinator is not None:
                if opinions is None:
                    opinions = _opinion_index(inbox, coordinator)
                opinion = opinions.get(state.instance, _NO_OPINION)
                if opinion is not _NO_OPINION:
                    state.opinion = opinion
            if decide is not None and not state.decided:
                state.decided = True
                state.opinion = decide
                state.output = None if decide == BOTTOM else decide
                state.linger_rounds = LINGER_PHASES * PHASE_LENGTH
                self._undecided -= 1
                self._lingering.append(state)
        return payloads

    def _sorted_states(self) -> list[_ReferenceState]:
        cache = self._sorted_cache
        if cache is None:
            cache = [self._instances[k] for k in sorted(self._instances, key=repr)]
            self._sorted_cache = cache
        return cache

