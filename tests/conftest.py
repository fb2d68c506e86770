"""Shared pytest fixtures."""

from __future__ import annotations

import pytest

from repro.sim import Inbox, RoundView
from repro.sim.errors import UnknownEngineError

#: Retired kernel names, mapped to the kernel that replaced each.
RETIRED_KERNELS = {"fast": "vector", "legacy": "queue"}


@pytest.fixture
def make_view():
    """Factory for hand-crafted RoundViews used by unit tests that drive a
    process directly without a network."""

    def _make(round_index: int, pairs=()):
        return RoundView(round_index=round_index, inbox=Inbox.from_pairs(pairs))

    return _make


@pytest.fixture
def current_kernel():
    """Map a kernel name, retired or not, onto one ``engine=`` accepts.

    Kernel-parametrized tests keep the retired ``fast`` and ``legacy``
    names as cases.  For those, ``current_kernel(engine, build)`` first
    checks that ``build(engine)`` refuses the name with an
    :class:`UnknownEngineError` naming its replacement, then returns the
    replacement so the test goes on to run what a caller should switch to.
    """

    def _resolve(engine: str, build) -> str:
        replacement = RETIRED_KERNELS.get(engine)
        if replacement is None:
            return engine
        with pytest.raises(UnknownEngineError) as excinfo:
            build(engine)
        assert excinfo.value.replacement == replacement
        assert repr(replacement) in str(excinfo.value)
        return replacement

    return _resolve
