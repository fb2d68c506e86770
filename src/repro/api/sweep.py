"""Sweep expansion and parallel execution.

A :class:`SweepSpec` is a declarative cartesian grid over scenario axes
(``n``, ``f``, ``adversary``, delay/input/protocol parameters) plus a
repetition count; :meth:`SweepSpec.scenarios` expands it into concrete
:class:`~repro.api.spec.ScenarioSpec` values, deriving one seed per
(configuration, repetition) pair.  :class:`SweepRunner` executes the
scenarios — sequentially or across worker processes — and feeds the
per-scenario measurement rows into the existing
:func:`repro.analysis.stats.aggregate_rows` machinery.

Parallel execution goes through :func:`map_jobs`, the one fan-out path of
the package (sweeps, resumable store sweeps, scenario search).  It keeps
one ``ProcessPoolExecutor`` alive for the life of the process, so
repeated calls reuse warm workers instead of forking a pool per call.
Parallel execution is *bit-deterministic*: every scenario carries its own
derived seed and rows are collected in expansion order, so ``jobs=1`` and
``jobs=N`` produce identical aggregated results.
"""

from __future__ import annotations

import itertools
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..analysis.properties import agreement, holds, termination
from ..analysis.stats import aggregate_rows
from ..core.quorums import max_faults_tolerated
from ..sim.network import RunResult, all_correct_halted
from ..sim.rng import derive
from ..workloads.generators import SystemSpec
from .registry import REGISTRY
from .spec import ScenarioSpec, integral

__all__ = [
    "ScenarioOutcome",
    "resolve_stop",
    "run_scenario",
    "SweepSpec",
    "SweepRunner",
    "run_sweep",
    "map_jobs",
]

#: Axis names that map onto top-level ScenarioSpec fields.  Any other axis
#: name lands in ``params`` (optionally routed with a dotted prefix such as
#: ``input_params.ones_fraction`` or ``churn.join_rate``).
_FIELD_AXES = ("n", "f", "adversary", "delay", "inputs", "stop")
_PREFIX_AXES = ("input_params", "delay_params", "churn", "params")


# ---------------------------------------------------------------------------
# Running a single scenario
# ---------------------------------------------------------------------------

#: The approximate-agreement protocols: their outputs must stay inside the
#: correct range and contract (Theorem 4), not agree exactly, so their
#: summary rows carry no ``agreement``.
_APPROXIMATE = frozenset(
    {"approximate-agreement", "iterated-approximate-agreement", "dolev-approx"}
)


@dataclass
class ScenarioOutcome:
    """One executed scenario: the spec, the built system and the run."""

    spec: ScenarioSpec
    system: SystemSpec
    result: RunResult

    # -- convenience accessors ---------------------------------------------

    @property
    def network(self):
        return self.system.network

    def correct_processes(self) -> dict:
        return {i: self.network.process(i) for i in self.system.correct_ids}

    def outputs(self) -> dict:
        return {i: p.output for i, p in self.correct_processes().items()}

    @property
    def rounds(self) -> int:
        return self.result.rounds_executed

    @property
    def messages(self) -> int:
        return self.result.metrics.total_messages

    def decision_rounds_exhausted(self) -> int:
        """Last decision round, falling back to the rounds executed."""

        return self.result.metrics.latest_decision_round() or self.rounds

    def summary_row(self) -> dict[str, Any]:
        """The default measurement row for sweeps without a custom row_fn.

        Two kinds of protocol promise no exact agreement, so their rows
        omit ``agreement`` and aggregates report NaN for it: a protocol
        registered to stop when its nodes halt rather than decide (the
        rotor-coordinator, whose nodes each output the last opinion they
        accepted), and approximate agreement, whose outputs Theorem 4 only
        keeps inside the correct range and contracts (:data:`_APPROXIMATE`).
        """

        outputs = self.outputs()
        decided = termination(outputs)
        row = {
            "protocol": self.spec.protocol,
            "n": self.spec.n,
            "f": self.spec.f,
            "adversary": self.spec.adversary,
            "decided": holds(decided),
            "agreement": holds(decided, agreement(outputs)),
            "rounds": self.rounds,
            "decision_round": self.decision_rounds_exhausted(),
            "messages": self.messages,
            "stop_reason": self.result.stop_reason,
        }
        protocol = self.spec.protocol
        if protocol in _APPROXIMATE or REGISTRY.info(protocol).default_stop == "halted":
            del row["agreement"]
        return row


def run_scenario(
    spec: ScenarioSpec,
    *,
    payload_accounting: bool = False,
) -> ScenarioOutcome:
    """Build the system for ``spec``, run it under its run policy, return it.

    ``payload_accounting`` switches on wire byte counting
    (``payload_bytes``/``peak_payload_bytes`` in the metrics summary)
    before the run — pure measurement, no effect on the execution itself.
    """

    info = REGISTRY.info(spec.protocol)
    system = REGISTRY.build(spec)
    if payload_accounting:
        system.network.enable_payload_accounting()
    max_rounds = (
        spec.max_rounds if spec.max_rounds is not None else info.default_max_rounds(spec)
    )
    result = system.network.run(
        max_rounds=max_rounds, stop_when=resolve_stop(spec, info)
    )
    return ScenarioOutcome(spec=spec, system=system, result=result)


def resolve_stop(spec: ScenarioSpec, info=None) -> Callable | None:
    """The ``stop_when`` callable a spec's run policy implies.

    Shared by :func:`run_scenario` and the benchmarks so both always run
    the same executions.  ``info`` defaults to the registry entry for the
    spec's protocol; a returned ``None`` means the network's default stop
    condition (every correct node decided).
    """

    info = info or REGISTRY.info(spec.protocol)
    stop_kind = info.default_stop if spec.stop == "default" else spec.stop
    if stop_kind == "decided":
        return None  # the network's default: every correct node decided
    if stop_kind == "halted":
        return all_correct_halted
    return _never_stop  # "never": run the full round budget


def _never_stop(network) -> bool:
    return False


# ---------------------------------------------------------------------------
# Sweep specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian grid of scenarios over one protocol.

    ``grid`` maps axis names to the values to sweep; axes are combined as a
    cartesian product in insertion order and each combination is repeated
    ``repetitions`` times.  Axis names ``n``/``f``/``adversary``/``delay``/
    ``inputs``/``stop`` set the corresponding :class:`ScenarioSpec` field;
    dotted names (``input_params.ones_fraction``, ``churn.join_rate``,
    ``delay_params.delta``, ``params.iterations``) set an entry inside the
    corresponding option mapping; any bare name is a protocol parameter.

    The remaining fields are the fixed (non-swept) scenario settings.  When
    ``f`` is neither fixed nor an axis it defaults to the paper's maximum
    ``⌊(n − 1)/3⌋`` per configuration.  Each scenario's seed is
    ``derive(base_seed, *seed_tags, *axis_values, repetition)`` — stable,
    collision-free and independent of execution order.
    """

    protocol: str
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    repetitions: int = 1
    base_seed: int = 0
    n: int | None = None
    f: int | None = None
    adversary: str = "silent"
    inputs: str = "default"
    input_params: Mapping[str, Any] = field(default_factory=dict)
    delay: str = "synchronous"
    delay_params: Mapping[str, Any] = field(default_factory=dict)
    churn: Mapping[str, Any] | None = None
    params: Mapping[str, Any] = field(default_factory=dict)
    max_rounds: int | None = None
    stop: str = "default"
    trace: bool = False
    seed_tags: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "repetitions", integral("repetitions", self.repetitions)
        )
        object.__setattr__(self, "base_seed", integral("base_seed", self.base_seed))
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        for axis, values in self.grid.items():
            if not isinstance(axis, str) or not axis:
                raise ValueError("grid axis names must be non-empty strings")
            if not list(values):
                raise ValueError(f"grid axis {axis!r} has no values")
        if self.n is None and "n" not in self.grid:
            raise ValueError("sweep needs n either fixed or as a grid axis")

    def scenarios(self) -> Iterator[ScenarioSpec]:
        """Expand the grid into concrete scenario specs, in a stable order."""

        axes = list(self.grid.keys())
        value_lists = [list(self.grid[a]) for a in axes]
        for combo in itertools.product(*value_lists):
            settings: dict[str, Any] = {
                "n": self.n,
                "f": self.f,
                "adversary": self.adversary,
                "inputs": self.inputs,
                "delay": self.delay,
                "stop": self.stop,
            }
            options = {
                "input_params": dict(self.input_params),
                "delay_params": dict(self.delay_params),
                "churn": dict(self.churn) if self.churn is not None else None,
                "params": dict(self.params),
            }
            for axis, value in zip(axes, combo):
                if axis in _FIELD_AXES:
                    settings[axis] = value
                    continue
                prefix, _, key = axis.partition(".")
                if key and prefix in _PREFIX_AXES:
                    if prefix == "churn" and options["churn"] is None:
                        options["churn"] = {}
                    options[prefix][key] = value
                else:
                    options["params"][axis] = value
            n = integral("n", settings["n"])
            f = settings["f"]
            f = max_faults_tolerated(n) if f is None else integral("f", f)
            for repetition in range(self.repetitions):
                yield ScenarioSpec(
                    protocol=self.protocol,
                    n=n,
                    f=f,
                    adversary=settings["adversary"],
                    seed=derive(self.base_seed, *self.seed_tags, *combo, repetition),
                    max_rounds=self.max_rounds,
                    inputs=settings["inputs"],
                    input_params=options["input_params"],
                    delay=settings["delay"],
                    delay_params=options["delay_params"],
                    churn=options["churn"],
                    params=options["params"],
                    stop=settings["stop"],
                    trace=self.trace,
                )

    def scenario_count(self) -> int:
        sizes = [len(list(v)) for v in self.grid.values()]
        total = self.repetitions
        for size in sizes:
            total *= size
        return total


# ---------------------------------------------------------------------------
# Parallel execution
# ---------------------------------------------------------------------------

RowFn = Callable[[ScenarioOutcome], dict]


def _default_row(outcome: ScenarioOutcome) -> dict:
    return outcome.summary_row()


def _run_case(payload: tuple[dict, RowFn]) -> dict:
    """Worker entry point: rebuild the spec, run it, extract the row.

    Executed in worker processes, so it only receives (and returns) plain,
    picklable values; ``row_fn`` must be a module-level function.
    """

    spec_dict, row_fn = payload
    return row_fn(run_scenario(ScenarioSpec.from_dict(spec_dict)))


#: The process's one worker pool (see :func:`map_jobs`), what it was forked
#: with (its worker count and the registered protocols) and how many calls
#: have work pending on it.  Module state, because the pool must outlive
#: its callers: every search, sweep request and experiment builds its own
#: runner.  Reentrant, since a results generator released by the garbage
#: collector takes the lock from whatever frame the collector runs in.
_POOL: ProcessPoolExecutor | None = None
_POOL_KEY: tuple = ()
_POOL_CALLS = 0
_POOL_LOCK = threading.RLock()


def _retire_pool() -> None:
    """Shut the live pool down (call under the lock): join it if it is
    idle, else let the other calls' queued work finish on it."""

    global _POOL
    _POOL.shutdown(wait=_POOL_CALLS == 0)
    _POOL = None


def _pool_map(fn: Callable, payloads: Sequence, workers: int, chunksize: int):
    """Submit ``payloads`` to the live pool if it was forked with the same
    worker count and protocols and is not broken, else to a new one.

    Returns the pool and its lazy, in-order results, or ``None`` when no
    pool can be created here (sandboxes without process support).
    """

    global _POOL, _POOL_KEY, _POOL_CALLS
    key = (workers, tuple(REGISTRY))
    with _POOL_LOCK:
        if _POOL is not None and _POOL_KEY != key:
            _retire_pool()
        if _POOL is not None:
            try:
                results = _POOL.map(fn, payloads, chunksize=chunksize)
            except BrokenProcessPool:  # a worker died in an earlier call
                _retire_pool()
            else:
                _POOL_CALLS += 1
                return _POOL, results
        try:
            _POOL = ProcessPoolExecutor(max_workers=workers)
        except OSError as exc:  # pragma: no cover - sandboxes
            warnings.warn(
                f"process pool unavailable ({exc}); falling back to "
                "sequential execution",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        _POOL_KEY, _POOL_CALLS = key, 0
        results = _POOL.map(fn, payloads, chunksize=chunksize)
        _POOL_CALLS = 1
        return _POOL, results


def _release(pool: ProcessPoolExecutor) -> None:
    global _POOL_CALLS
    with _POOL_LOCK:
        if pool is _POOL:
            _POOL_CALLS -= 1


def map_jobs(fn: Callable, payloads: Sequence, jobs: int) -> Iterator:
    """Map ``fn`` over ``payloads`` in order, optionally across worker processes.

    The shared execution engine of :class:`SweepRunner`, the resumable
    layer (:class:`repro.store.resumable.ResumableSweep`) and the scenario
    search: results come back lazily and strictly in payload order, so
    callers can fire progress callbacks as cells complete while keeping
    deterministic collection order.  ``jobs == 1`` (or a single payload)
    runs inline.  ``fn`` must be a module-level function and
    payloads/results must pickle.

    Otherwise the payloads run on the process's one worker pool, with
    ``min(jobs, os.cpu_count())`` workers; work starts at the first
    ``next``.

    * *Lifetime.*  The first call that needs workers starts the pool, and
      every later call that needs the same count reuses it until the
      process exits; concurrent calls with the same count share its
      workers.  A fresh forked worker runs its first tasks about twice as
      slowly as a warm one, so a search forks no workers after its first
      generation.
    * *Replacement.*  A call that needs another worker count, finds the
      pool broken (a worker died, so the calls waiting on it raised
      ``BrokenProcessPool``) or sees a protocol registered since the pool
      started, retires the pool and starts a new one.  An idle pool is
      joined first, so a process with one caller never forks while
      another pool's threads run (Python 3.12 warns about forking a
      multi-threaded process).  A pool that other calls still have work
      on is shut down without waiting: their queued work finishes on it,
      and callers with different ``jobs`` run side by side.  A lock
      guards this check-and-create step, since the scenario service calls
      ``map_jobs`` from its sweep threads.
    * *Fork-time state.*  Workers are copies of the process as it was when
      the pool started.  Protocols registered later reach them through the
      replacement above; any other state changed since (a module global,
      an environment variable) does not, so pass it in the payload.
    * *Abandoned iterators.*  Closing an unfinished iterator cancels that
      call's pending work only; the pool stays up.
    * *Fallback.*  Workers start with the platform's default start method
      (fork on Linux).  Only pool *creation* falls back to sequential
      execution, with a ``RuntimeWarning`` (sandboxes without process
      support); an error raised inside ``fn`` propagates unchanged rather
      than triggering a silent rerun.
    """

    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if jobs == 1 or len(payloads) <= 1:
        return map(fn, payloads)
    workers = min(jobs, os.cpu_count() or 1)
    chunksize = max(1, len(payloads) // (min(workers, len(payloads)) * 4))

    def results() -> Iterator:
        submitted = _pool_map(fn, payloads, workers, chunksize)
        if submitted is None:
            yield from map(fn, payloads)
            return
        pool, mapped = submitted
        try:
            yield from mapped
        finally:
            _release(pool)

    return results()


#: Progress callback: ``(index, spec, row)`` per completed scenario, fired
#: in expansion order as results arrive.
CellCallback = Callable[[int, ScenarioSpec, dict], None]


class SweepRunner:
    """Executes sweeps, optionally across a process pool.

    ``jobs`` is the worker-process count; ``1`` (the default) runs inline.
    Rows come back in scenario-expansion order regardless of ``jobs``, and
    every scenario owns a derived seed, so parallel runs are bit-identical
    to sequential ones.
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs

    def run(
        self,
        sweeps: SweepSpec | Sequence[SweepSpec],
        *,
        row_fn: RowFn | None = None,
        on_cell_complete: CellCallback | None = None,
    ) -> list[dict]:
        """Expand and execute ``sweeps``, returning one row per scenario.

        ``on_cell_complete(index, spec, row)`` fires per scenario, in
        expansion order, as results arrive — the progress signal the
        resumable store layer and the streaming scenario service build
        on.  With no callback the behaviour (and the returned rows) are
        exactly as before.
        """

        if isinstance(sweeps, SweepSpec):
            sweeps = [sweeps]
        scenarios = [spec for sweep in sweeps for spec in sweep.scenarios()]
        extract = row_fn or _default_row
        payloads = [(spec.to_dict(), extract) for spec in scenarios]
        rows: list[dict] = []
        for index, row in enumerate(map_jobs(_run_case, payloads, self.jobs)):
            if on_cell_complete is not None:
                on_cell_complete(index, scenarios[index], row)
            rows.append(row)
        return rows

    def run_aggregated(
        self,
        sweeps: SweepSpec | Sequence[SweepSpec],
        *,
        group_by: Sequence[str],
        metrics: Sequence[str],
        row_fn: RowFn | None = None,
    ) -> list[dict]:
        """Run and aggregate in one call (means/rates via analysis.stats)."""

        rows = self.run(sweeps, row_fn=row_fn)
        return aggregate_rows(rows, group_by=list(group_by), metrics=list(metrics))


def run_sweep(
    sweep: SweepSpec | Sequence[SweepSpec],
    *,
    jobs: int = 1,
    row_fn: RowFn | None = None,
    group_by: Sequence[str] | None = None,
    metrics: Sequence[str] | None = None,
) -> list[dict]:
    """Convenience wrapper: raw rows, or aggregated when grouping is given."""

    runner = SweepRunner(jobs=jobs)
    if (group_by is None) != (metrics is None):
        raise ValueError("group_by and metrics must be provided together")
    if group_by is None:
        return runner.run(sweep, row_fn=row_fn)
    return runner.run_aggregated(sweep, group_by=group_by, metrics=metrics, row_fn=row_fn)
