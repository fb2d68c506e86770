"""Process abstractions for the synchronous round-based simulator.

A *process* is the unit of computation the network drives: once per round
it receives an :class:`~repro.sim.messages.Inbox` (the messages sent to it
in the previous round) and returns the messages it wants to send in this
round.  Protocol implementations in :mod:`repro.core` and the baselines in
:mod:`repro.baselines` subclass :class:`Process`; Byzantine nodes are
represented by :class:`repro.adversary.base.ByzantineProcess`, which
delegates to an adversary strategy.

Design notes
------------
* Processes are *pure state machines*: ``step`` receives an immutable
  :class:`RoundView` and returns a list of outgoing actions.  They never
  touch the network directly, which makes protocol composition (e.g. the
  rotor-coordinator embedded inside the consensus algorithm) and unit
  testing trivial — a test can drive a process with hand-crafted inboxes.
* Decision values are exposed through ``output``/``decided`` so the harness
  can collect results uniformly across protocols.
* ``halted`` processes stop being scheduled; the paper's reliable broadcast
  intentionally never halts on its own (it is a subroutine), so halting is
  always an explicit protocol decision.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Sequence

from .messages import Inbox, NodeId, Outgoing, intern_payload

__all__ = ["RoundView", "Process", "KnownSenders", "NullProcess"]


@dataclass(frozen=True)
class RoundView:
    """Everything a process is allowed to observe in one round.

    ``round_index`` is the 1-based global round number.  The id-only model
    gives nodes no other global information: no ``n``, no ``f``, no
    membership list — only their own identifier and whatever arrived in the
    inbox.
    """

    round_index: int
    inbox: Inbox


class Process(abc.ABC):
    """Base class for every (correct) protocol participant."""

    def __init__(self, node_id: NodeId) -> None:
        self._node_id = node_id
        self._halted = False

    # -- identity ---------------------------------------------------------

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def is_byzantine(self) -> bool:
        """Correct processes report ``False``; adversary wrappers override."""

        return False

    # -- lifecycle ---------------------------------------------------------

    @property
    def halted(self) -> bool:
        """True when the process asked to stop being scheduled."""

        return self._halted

    def halt(self) -> None:
        """Mark the process as finished; the network stops stepping it."""

        self._halted = True

    # -- results -----------------------------------------------------------

    @property
    def decided(self) -> bool:
        """True when the process has produced its (first) output."""

        return self.output is not None

    @property
    def output(self) -> Any:
        """The protocol output, or ``None`` when not yet decided."""

        return None

    # -- the actual state machine -------------------------------------------

    @abc.abstractmethod
    def step(self, view: RoundView) -> Sequence[Outgoing]:
        """Consume one round of messages, return the messages to send.

        The network reads the returned sequence when it stages the round,
        after every node has stepped, so it must not be mutated before
        then.  Nodes may return one shared object: the network compiles a
        sequence that carries a unicast once per object per round.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "halted" if self.halted else "running"
        return f"{type(self).__name__}(id={self.node_id}, {status})"


class NullProcess(Process):
    """A correct process that participates in no protocol.

    Useful as a placeholder in membership experiments and as the simplest
    possible :class:`Process` for simulator unit tests.
    """

    def step(self, view: RoundView) -> Sequence[Outgoing]:  # noqa: ARG002
        return ()


#: The view every :class:`KnownSenders` starts from.  ``frozenset()`` is not
#: a singleton, and the view is a memo key: equal views must be one object
#: for the key lookup to be an identity check.
_NOBODY: frozenset[NodeId] = frozenset()


class KnownSenders:
    """Tracks ``nv`` — the nodes that have sent at least one message so far.

    Every algorithm in the paper replaces the unknown ``n`` with ``nv``, the
    number of *distinct* nodes from which the local node has received at
    least one message up to the current round (Algorithm 1, line 10;
    Algorithm 2, line 7).  This helper centralises that bookkeeping so the
    protocol code reads like the pseudocode.
    """

    __slots__ = ("_view", "_frozen")

    def __init__(self) -> None:
        self._frozen = False
        self._view = _NOBODY

    def observe(self, inbox: Inbox) -> None:
        """Record every sender in ``inbox``.

        After :meth:`freeze` the membership no longer grows; Algorithms 3
        and 5 freeze ``nv`` after their two initialization rounds and
        discard messages from unknown senders afterwards.

        The union is memoized on the inbox, keyed by the membership going
        in: with a shared inbox every node with the same prior
        view (all of them, in the common lock-step case) reuses one union
        computed once per round instead of paying an O(n) set update each.
        The result is interned, so in the steady state — no new senders —
        the memo hands back the *same* frozenset object and this is a
        dict lookup plus an identity-equal assignment.
        """

        if self._frozen:
            return
        view = self._view
        self._view = inbox.memo(
            ("known-senders", view),
            lambda ib: intern_payload(view | ib.senders),
        )

    def freeze(self) -> None:
        """Stop growing the set (used after the init rounds of Alg. 3/5).

        The frozen view is interned: correct nodes overwhelmingly freeze
        identical memberships, and sharing one canonical frozenset makes
        the memo-key comparisons of :meth:`~repro.sim.messages.Inbox.memo`
        (restricted views are keyed by the allowed set) an identity check
        instead of an element-wise hash-and-compare.
        """

        self._frozen = True
        self._view = intern_payload(self._view)

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def count(self) -> int:
        """The value ``nv`` used in the relative quorum thresholds."""

        return len(self._view)

    @property
    def ids(self) -> frozenset[NodeId]:
        """The membership as a frozenset — the storage itself.

        Quorum counting queries this every support count, and the wire
        layer uses it as the memo key of the shared
        :meth:`~repro.sim.messages.Inbox.restricted` filter — returning the
        same object (with frozenset's internally cached hash) keeps those
        lookups cheap at scale.
        """

        return self._view

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._view

    def __len__(self) -> int:
        return len(self._view)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "frozen" if self._frozen else "open"
        return f"KnownSenders(n={len(self._view)}, {state})"
