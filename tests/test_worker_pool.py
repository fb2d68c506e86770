"""The process-wide worker pool behind :func:`repro.api.sweep.map_jobs`.

One pool serves every call that needs as many workers.  A call that needs
another count, finds the pool broken or sees a protocol registered since
the pool started replaces it: an idle pool is joined first, a busy one is
left to finish the other calls' work while the new one runs.  Every test
runs under a deadline, so a hung pool fails the test instead of stalling
the suite.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import REGISTRY, SweepSpec, register_protocol, run_sweep
from repro.api.sweep import map_jobs

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="deadlines use SIGALRM"
)

#: Seconds any one test may take, waits included.
DEADLINE_S = 60


def _pid(_payload) -> int:
    # Long enough that an 8-payload call keeps both workers busy.
    time.sleep(0.02)
    return os.getpid()


def _square(value: int) -> int:
    return value * value


def _die(_payload) -> None:
    os._exit(1)


def _held(paths: tuple[str, str]) -> int:
    """Mark the call started, then hold the worker until released."""

    started, release = paths
    open(started, "a").close()
    give_up = time.monotonic() + DEADLINE_S
    while not os.path.exists(release) and time.monotonic() < give_up:
        time.sleep(0.005)
    return os.getpid()


def _live_children() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def _wait_until(condition, timeout: float = DEADLINE_S / 3) -> None:
    give_up = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < give_up, "condition not reached in time"
        time.sleep(0.01)


@pytest.fixture(autouse=True)
def deadline():
    def expire(signum, frame):
        raise TimeoutError(f"worker-pool test passed its {DEADLINE_S} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def two_workers(monkeypatch):
    """Pin the worker count at 2 whatever the host's core count."""

    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_calls_are_served_by_the_same_workers(two_workers):
    first = list(map_jobs(_pid, range(8), 2))
    second = list(map_jobs(_pid, range(8), 2))
    workers = set(first) | set(second)
    assert os.getpid() not in workers
    # Both calls ran on one live 2-worker pool: nothing was forked for the
    # second call, and the first call's workers are still up.
    assert len(workers) <= 2
    assert workers <= _live_children()


def test_abandoned_iterator_cancels_only_its_own_work(two_workers):
    kept = map_jobs(_square, list(range(6)), 2)
    assert next(kept) == 0
    abandoned = map_jobs(_pid, list(range(6)), 2)
    pool = {next(abandoned)}
    abandoned.close()
    # The other caller's pending work was not cancelled with it …
    assert list(kept) == [1, 4, 9, 16, 25]
    # … the next call gets exactly its own results, in order …
    assert list(map_jobs(_square, [7, 3, 5, 2], 2)) == [49, 9, 25, 4]
    # … and the pool stayed up.
    after = set(map_jobs(_pid, range(8), 2))
    assert pool <= _live_children() and after <= _live_children()
    assert len(pool | after) <= 2


def test_a_broken_pool_is_replaced_by_the_next_call(two_workers):
    before = set(map_jobs(_pid, range(8), 2))
    with pytest.raises(BrokenProcessPool):
        list(map_jobs(_die, range(4), 2))
    after = list(map_jobs(_pid, range(8), 2))
    assert set(after).isdisjoint(before)
    assert not before & _live_children()
    # The replacement is the shared pool from now on.
    again = set(map_jobs(_pid, range(8), 2))
    assert len(set(after) | again) <= 2
    assert set(after) | again <= _live_children()


def test_a_new_worker_count_joins_the_old_pool_first(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert list(map_jobs(_square, range(6), 2)) == [0, 1, 4, 9, 16, 25]
    old = _live_children()
    assert len(old) == 2
    assert list(map_jobs(_square, range(9), 3)) == [v * v for v in range(9)]
    # By the second call's end the 2-worker pool has exited; only the new
    # 3-worker pool is alive.
    live = _live_children()
    assert not old & live
    assert len(live) == 3


# The new pool is forked while the held caller's thread runs; Python 3.12
# warns about any fork in a multi-threaded process.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_callers_with_different_jobs_run_side_by_side(monkeypatch, tmp_path):
    """A call that needs another worker count does not wait for the work
    other callers still have on the old pool."""

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    started, release = tmp_path / "started", tmp_path / "release"
    held: list[int] = []
    holder = threading.Thread(
        target=lambda: held.extend(
            map_jobs(_held, [(str(started), str(release))] * 4, 2)
        )
    )
    holder.start()
    try:
        _wait_until(started.exists)
        resized: list[int] = []
        resizer = threading.Thread(
            target=lambda: resized.extend(map_jobs(_square, range(9), 3))
        )
        resizer.start()
        resizer.join(timeout=DEADLINE_S / 3)
        # The jobs=3 call finished while the jobs=2 call was still held.
        assert resized == [v * v for v in range(9)]
        assert holder.is_alive()
    finally:
        release.touch()
        holder.join(timeout=DEADLINE_S / 3)
    assert len(held) == 4 and os.getpid() not in held
    # The retired 2-worker pool exits once its queued work is done.
    _wait_until(lambda: len(_live_children()) == 3)


def test_a_protocol_registered_later_reaches_the_workers(two_workers, monkeypatch):
    """Workers are forked copies of the parent; a protocol registered after
    the pool started must not be a ``KeyError`` in them."""

    list(map_jobs(_pid, range(8), 2))
    # The registration below is undone when the test ends.
    monkeypatch.setattr(REGISTRY, "_protocols", dict(REGISTRY._protocols))
    register_protocol("late-consensus")(REGISTRY.info("consensus").builder)
    sweep = SweepSpec(protocol="late-consensus", grid={"n": [4, 5, 7]})
    assert run_sweep(sweep, jobs=2) == run_sweep(sweep, jobs=1)


# The callers fork replacement pools while the other caller threads run,
# as the service's sweep threads do; Python 3.12 warns about any fork in a
# multi-threaded process.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_concurrent_callers_get_their_own_results(monkeypatch):
    """Sweep threads of the scenario service call map_jobs concurrently,
    with different jobs values: every caller gets its own results, and
    once they are done at most one pool's workers stay alive."""

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    failures: list[str] = []

    def caller(index: int) -> None:
        for round_ in range(4):
            jobs = 2 + (index + round_) % 2
            values = list(range(index, index + 5 + round_))
            try:
                got = list(map_jobs(_square, values, jobs))
            except Exception as exc:  # reported below, from the test thread
                got = repr(exc)
            if got != [v * v for v in values]:
                failures.append(f"caller {index}, round {round_}: {got}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=DEADLINE_S / 2)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    _wait_until(lambda: len(_live_children()) <= 3)
