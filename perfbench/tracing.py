"""Span recorder for the traced benchmark run.

Tracing never runs during measured runs.  ``install`` wraps the public
entry points of each layer of ``repro`` (and a few stdlib server hooks) from
here, the benchmark's side, so no file under ``src/`` knows about it.  Each
wrapper opens a frame on a per-thread stack; when the frame closes, its
*self time* — its duration minus the time its child frames covered — is
added to its layer.

Spans (id, parent id, layer, function, start, end, op id) are kept in
memory for the coarse layers and written out when the run ends.  The
per-node layers (:data:`HOT_LAYERS`) run millions of times per run, so
they only add to their layer's totals; their children point at the
nearest recorded ancestor.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator

#: Every layer the per-layer report names, in report order.  ``bench`` is
#: the benchmark's own op loop and checks; ``client.http`` is the
#: benchmark's HTTP client waiting on the service.
LAYERS = (
    "bench",
    "api.build",
    "api.sweep",
    "sim.network",
    "sim.events",
    "core",
    "core.parallel_consensus",
    "core.total_order",
    "adversary",
    "search",
    "search.mutate",
    "search.score",
    "store.resumable",
    "store.db",
    "store.serialize",
    "store.service",
    "store.service.wait",
    "client.http",
)

#: Layers entered once per node per round (or per NDJSON line): totals only.
HOT_LAYERS = frozenset(
    {
        "sim.events",
        "core",
        "core.parallel_consensus",
        "core.total_order",
        "adversary",
        "store.serialize",
    }
)

#: (module, attribute, layer, kind).  ``kind`` is ``call`` for a plain
#: wrapper, ``iter`` when the call returns an iterator whose every step is
#: timed, and ``build``/``run`` for the network hooks that also collect the
#: kernel's deliver/step/stage phase profile.
TARGETS = (
    ("repro.api.registry", "ProtocolRegistry.build", "api.build", "build"),
    ("repro.api.sweep", "run_scenario", "api.sweep", "call"),
    ("repro.api.sweep", "map_jobs", "api.sweep", "iter"),
    ("repro.sim.network", "SynchronousNetwork.step_round", "sim.network", "call"),
    ("repro.sim.network", "SynchronousNetwork.run", "sim.network", "run"),
    ("repro.sim.events", "Trace.record_event", "sim.events", "call"),
    ("repro.sim.events", "Trace.record_sends_columnar", "sim.events", "call"),
    ("repro.sim.events", "Trace.record_deliveries_columnar", "sim.events", "call"),
    ("repro.sim.events", "Trace.export_segments", "sim.events", "call"),
    (
        "repro.core.parallel_consensus",
        "ParallelConsensusEngine.step",
        "core.parallel_consensus",
        "call",
    ),
    ("repro.search.harness", "ScenarioSearch.run", "search", "call"),
    ("repro.search.mutate", "SpecMutator.mutate", "search.mutate", "call"),
    ("repro.search.score", "evaluate_outcome", "search.score", "call"),
    ("repro.search.score", "evaluation_row", "search.score", "call"),
    ("repro.search.score", "score_row", "search.score", "call"),
    ("repro.store.resumable", "ResumableSweep.run_specs", "store.resumable", "call"),
    ("repro.store.resumable", "record_from_outcome", "store.resumable", "call"),
    ("repro.store.db", "RunStore.put_run", "store.db", "call"),
    ("repro.store.db", "RunStore.get_run", "store.db", "call"),
    ("repro.store.db", "RunStore.get_row", "store.db", "call"),
    ("repro.store.db", "RunStore.query", "store.db", "call"),
    ("repro.store.db", "StoredTrace.select_batches", "store.db", "iter"),
    ("repro.store.serialize", "canonical_dumps", "store.serialize", "call"),
    ("repro.store.serialize", "json_normalize", "store.serialize", "call"),
    ("repro.store.serialize", "pickle_dumps", "store.serialize", "call"),
    ("repro.store.serialize", "pickle_loads", "store.serialize", "call"),
    (
        "http.server",
        "BaseHTTPRequestHandler.handle_one_request",
        "store.service",
        "call",
    ),
    ("repro.store.service", "SweepJob.events", "store.service.wait", "iter"),
)


class _ThreadState:
    __slots__ = ("stack", "layers", "counters")

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [start, child seconds, span id]
        self.layers: dict[str, list] = defaultdict(lambda: [0.0, 0])
        self.counters: dict[str, float] = defaultdict(float)


class Recorder:
    """Per-layer self time and spans for one traced process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []
        #: The op the benchmark loop is running (``None`` in a server).
        self.op: int | None = None

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    # -- frames ---------------------------------------------------------------

    def _enter(self, hot: bool) -> tuple[_ThreadState, list]:
        state = self._state()
        stack = state.stack
        parent = stack[-1][2] if stack else None
        frame = [perf_counter(), 0.0, parent if hot else next(self._ids)]
        stack.append(frame)
        return state, frame

    def _exit(self, state: _ThreadState, frame: list, layer: str, name: str, hot: bool) -> None:
        end = perf_counter()
        stack = state.stack
        stack.pop()
        elapsed = end - frame[0]
        totals = state.layers[layer]
        totals[0] += elapsed - frame[1]
        totals[1] += 1
        if stack:
            stack[-1][1] += elapsed
            parent = stack[-1][2]
        else:
            parent = None
        if not hot:
            self.spans.append((frame[2], parent, layer, name, frame[0], end, self.op))

    def call_op(self, op: int, fn: Callable[[], int]) -> int:
        """Run one benchmark op as the root ``bench`` span."""

        self.op = op
        state, frame = self._enter(False)
        try:
            return fn()
        finally:
            self._exit(state, frame, "bench", "op", False)

    def count(self, name: str, amount: float = 1.0) -> None:
        self._state().counters[name] += amount

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        hot = layer in HOT_LAYERS
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            state, frame = enter(hot)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(state, frame, layer, name, hot)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def wrap_iter(self, fn: Callable, layer: str, name: str) -> Callable:
        call = self.wrap(fn, layer, name)
        recorder = self

        class _Steps:
            def __init__(self, inner: Iterator) -> None:
                self._inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                state, frame = recorder._enter(False)
                try:
                    return next(self._inner)
                finally:
                    recorder._exit(state, frame, layer, name, False)

        def traced(*args, **kwargs):
            return _Steps(iter(call(*args, **kwargs)))

        traced.__wrapped__ = fn
        return traced

    def wrap_step(self, fn: Callable, layer: str, name: str, columnar: type) -> Callable:
        """``Process.step``: also count steps that received a columnar inbox."""

        call = self.wrap(fn, layer, name)
        count = self.count

        def traced(process, view):
            if isinstance(view.inbox, columnar):
                count("columnar_steps")
            count("steps")
            return call(process, view)

        traced.__wrapped__ = fn
        return traced

    # -- results --------------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        merged: dict[str, dict] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, (self_s, calls) in list(state.layers.items()):
                entry = merged.setdefault(layer, {"self_s": 0.0, "calls": 0})
                entry["self_s"] += self_s
                entry["calls"] += calls
        return merged

    def counters(self) -> dict[str, float]:
        merged: dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in list(state.counters.items()):
                merged[name] += value
        return dict(merged)

    def dump(self, path: Path, **extra) -> None:
        payload = {
            **extra,
            "layers": self.layers(),
            "counters": self.counters(),
            "span_fields": ["id", "parent", "layer", "name", "start", "end", "op"],
            "spans": self.spans,
        }
        Path(path).write_text(json.dumps(payload))


def round_s(spans: Iterable) -> list[float]:
    """Seconds of every traced ``step_round`` call among ``spans``."""

    return [
        end - start
        for _, _, _, name, start, end, _ in spans
        if name == "SynchronousNetwork.step_round"
    ]


def _rebind(original: object, replacement: object) -> None:
    """Point every module-level name bound to ``original`` at ``replacement``.

    Covers ``from x import f`` copies in other modules, including the
    benchmark's own, so a call reaches the wrapper whichever way it was
    imported.
    """

    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if value is original:
                namespace[name] = replacement


def install(recorder: Recorder, extra: Iterable[tuple] = ()) -> list[str]:
    """Wrap every target and every ``Process.step``; returns targets not found.

    A target missing from the program (renamed or removed) is skipped
    rather than failing the run; its layer then reads zero.
    """

    from repro.adversary.base import ByzantineProcess
    from repro.sim.messages import ColumnarInbox
    from repro.sim.node import Process

    missing: list[str] = []
    for module_name, attr, layer, kind in (*TARGETS, *extra):
        try:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}.{attr}")
            continue
        if kind == "iter":
            wrapped = recorder.wrap_iter(original, layer, attr)
        elif kind == "build":
            wrapped = _build_hook(recorder.wrap(original, layer, attr))
        elif kind == "run":
            wrapped = _run_hook(recorder, recorder.wrap(original, layer, attr))
        else:
            wrapped = recorder.wrap(original, layer, attr)
        if isinstance(owner, type):
            setattr(owner, name, wrapped)
        else:
            _rebind(original, wrapped)

    pending = list(Process.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        step = cls.__dict__.get("step")
        if step is None or getattr(step, "__isabstractmethod__", False):
            continue
        if issubclass(cls, ByzantineProcess):
            layer = "adversary"
        elif cls.__module__ == "repro.core.total_order":
            layer = "core.total_order"
        else:
            layer = "core"
        cls.step = recorder.wrap_step(step, layer, f"{cls.__name__}.step", ColumnarInbox)
    return missing


def _build_hook(build: Callable) -> Callable:
    """Switch on the kernel's phase profile for every system built."""

    def traced(*args, **kwargs):
        system = build(*args, **kwargs)
        system.network.enable_phase_profile()
        return system

    return traced


def _run_hook(recorder: Recorder, run: Callable) -> Callable:
    """Fold each finished network's phase profile into the counters."""

    def traced(network, *args, **kwargs):
        result = run(network, *args, **kwargs)
        for phase, seconds in (network.phase_profile() or {}).items():
            recorder.count(f"phase_{phase}_s", seconds)
        return result

    return traced
