"""Shared pytest fixtures."""

from __future__ import annotations

import pytest

from repro.sim import Inbox, RoundView


@pytest.fixture
def make_view():
    """Factory for hand-crafted RoundViews used by unit tests that drive a
    process directly without a network."""

    def _make(round_index: int, pairs=()):
        return RoundView(round_index=round_index, inbox=Inbox.from_pairs(pairs))

    return _make
