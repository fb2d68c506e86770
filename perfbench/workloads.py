"""The benchmark's workloads: seeded inputs, ops, and output checks.

A workload hands the op loop one *cycle* of ops at a time.  An op is a
``(label, fn)`` pair; ``fn`` performs one unit of work, raises
:class:`OpFailure` when the program's output is wrong, and returns how
many work items it completed (messages delivered, chain entries
committed, …).  Every cycle draws fresh inputs from the benchmark seed,
so runs with the same ``--seed`` execute the same scenarios.  The loop
always finishes a started cycle, which keeps each run's op mix exact.

Throughput is reported per cycle, so a cycle is the unit that must hold
the full op mix.  The program only ever sees the generated specs and
requests.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable

from _measure import BenchError, derive_seed, peak_rss_mb, vm_hwm_mb

from repro.api import ScenarioOutcome, ScenarioSpec, build_system, run_scenario
from repro.harness.experiments import EXPERIMENTS
from repro.search import ScenarioSearch, applicable_engines, evaluate_outcome

Op = tuple[str, Callable[[], int]]


class OpFailure(Exception):
    """An op's output broke a property the paper guarantees for its input."""


def _within_guarantees(spec: ScenarioSpec) -> bool:
    """The regime where the paper proves safety: synchrony and n > 3f."""

    return spec.delay == "synchronous" and spec.n > 3 * spec.f


def _check_safe(outcome: ScenarioOutcome, *, terminated: bool = True) -> None:
    violations = evaluate_outcome(outcome)
    if violations:
        names = ", ".join(sorted({v.property_name for v in violations}))
        raise OpFailure(f"{names} violated by {outcome.spec.canonical_json()}")
    if terminated and outcome.result.stop_reason != "stop_condition":
        raise OpFailure(f"no termination within budget: {outcome.spec.canonical_json()}")


class Workload:
    """One workload; subclasses define the inputs and the ops."""

    name: str
    why: str
    #: What one work item is; ``work_per_s`` counts these.
    work_unit: str
    #: Ops run once, untimed, before the measured loop.
    warmup_ops = 1

    def __init__(self, *, seed: int, work_dir: Path, quick: bool, trace: bool) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.quick = quick
        self.trace = trace

    def _seed(self, *parts: object) -> int:
        return derive_seed(self.seed, self.name, *parts)

    def start(self, *, traced: bool = False) -> None:
        """Acquire what the ops need; the set-up probe times up to here.

        ``traced`` asks for any helper process to run with the layer
        wrappers installed.
        """

    def stop(self) -> None:
        """Release everything :meth:`start` acquired."""

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Workload-side counters since the last :meth:`reset_counters`."""

        return {}

    def reset_counters(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


class BroadcastScale(Workload):
    name = "broadcast-scale"
    why = (
        "Six protocols, each at the n it finishes in about 0.1 s (RB n=3000 "
        "to rotor n=125), silent and crash faults: broadcast rounds on the "
        "vector kernel, ColumnarInbox, numpy tallies."
    )
    work_unit = "message"
    #: Each protocol's n makes one op cost about 0.1 s on a 2-CPU host, so
    #: no protocol dominates a cycle's time.  The rotor runs Theta(n) rounds.
    sizes = {
        "reliable-broadcast": 3000,
        "rotor-coordinator": 125,
        "consensus": 500,
        "approximate-agreement": 4000,
        "iterated-approximate-agreement": 1500,
        "parallel-consensus": 500,
    }
    adversaries = ("silent", "crash")

    def cycle(self, index: int) -> list[Op]:
        return [
            self._op(index, protocol, adversary, max(n // 20, 6) if self.quick else n)
            for protocol, n in self.sizes.items()
            for adversary in self.adversaries
        ]

    def _op(self, index: int, protocol: str, adversary: str, n: int) -> Op:
        spec = ScenarioSpec(
            protocol=protocol,
            n=n,
            f=(n - 1) // 3,
            adversary=adversary,
            seed=self._seed(index, protocol, adversary),
        )
        return f"{protocol}/{adversary}", partial(self._run, spec)

    @staticmethod
    def _run(spec: ScenarioSpec) -> int:
        outcome = run_scenario(spec)
        _check_safe(outcome)
        return outcome.messages


class ByzantineUnicast(BroadcastScale):
    name = "byzantine-unicast"
    why = (
        "n=64, f=21 against 13 protocol attacks that unicast and equivocate: "
        "rounds skip the shared inbox and repro.adversary does the work, so a "
        "broadcast-only gain should not move it."
    )
    pairs = (
        ("reliable-broadcast", "rb-false-echo"),
        ("reliable-broadcast", "rb-forged-source"),
        ("reliable-broadcast", "rb-equivocating-sender"),
        ("rotor-coordinator", "rotor-candidate-stuffer"),
        ("rotor-coordinator", "rotor-split-echo"),
        ("rotor-coordinator", "rotor-usurper"),
        ("consensus", "consensus-split-vote"),
        ("consensus", "consensus-strongprefer-spoofer"),
        ("consensus", "coordinated-equivocation"),
        ("consensus", "rotor-usurper"),
        ("approximate-agreement", "approx-outlier"),
        ("iterated-approximate-agreement", "equivocate-value"),
        ("parallel-consensus", "replay"),
    )

    def cycle(self, index: int) -> list[Op]:
        n = 16 if self.quick else 64
        return [self._op(index, protocol, adversary, n) for protocol, adversary in self.pairs]


class TotalOrderChurn(Workload):
    name = "total-order-churn"
    why = (
        "Total ordering at n=16 with random-noise attackers, 4 nodes joining "
        "at round 10 and 3 leaving at round 50, 90 rounds to pass the "
        "finality horizon: core.total_order and parallel consensus."
    )
    work_unit = "committed chain entry"
    warmup_ops = 5

    def cycle(self, index: int) -> list[Op]:
        # One scenario per cycle; each op steps one round.  Rounds must
        # outlast the finality horizon (5|S|/2 + 2) for anything to commit.
        # A flash crowd fixes how many nodes join and leave and when, so
        # every seed delivers the same number of messages; with random
        # per-round churn that number varied by 21% between seeds.
        n, rounds, burst, exodus = (7, 40, 5, 20) if self.quick else (16, 90, 10, 50)
        spec = ScenarioSpec(
            protocol="total-order",
            n=n,
            f=(n - 1) // 3,
            adversary="random-noise",
            seed=self._seed(index),
            churn={
                "pattern": "flash-crowd",
                "burst_round": burst,
                "burst_size": 4,
                "exodus_round": exodus,
                "exodus_fraction": 0.2,
                "rounds": rounds,
            },
        )
        state: dict = {}
        return [
            (f"round-{min(r // 30 * 30, 60)}+", partial(self._round, spec, state, r, rounds))
            for r in range(rounds)
        ]

    @staticmethod
    def _round(spec: ScenarioSpec, state: dict, index: int, rounds: int) -> int:
        if index == 0:
            state["system"] = build_system(spec)
        system = state["system"]
        system.network.step_round()
        if index < rounds - 1:
            return 0
        # max_rounds=0 runs nothing: it only packages the rounds already
        # stepped into a RunResult for the property checks.
        result = system.network.run(max_rounds=0)
        outcome = ScenarioOutcome(spec=spec, system=system, result=result)
        _check_safe(outcome, terminated=False)
        schedule = system.params["schedule"]
        departed = {e.node_id for e in schedule.events if e.kind == "leave"}
        stayed = [i for i in system.correct_ids if i not in departed]
        if not stayed:
            raise OpFailure(f"no genesis node stayed: {spec.canonical_json()}")
        committed = min(len(system.network.process(i).chain) for i in stayed)
        if committed == 0:
            raise OpFailure(f"nothing committed in {rounds} rounds: {spec.canonical_json()}")
        return committed


class SmallNBatch(Workload):
    name = "small-n-batch"
    why = (
        "One scenario per configuration of the paper experiments E1-E7, E9 "
        "and E10 (n=4-25, baselines, delayed and churned runs): per-scenario "
        "build and small-round kernel costs dominate."
    )
    work_unit = "message"
    #: E8 is total ordering, measured by total-order-churn.  With its
    #: randomly churned scenarios in the cycle, ops_per_s spread 13% over
    #: ten runs.
    experiments = tuple(e for e in EXPERIMENTS if e != "E8")

    def cycle(self, index: int) -> list[Op]:
        specs = [
            (experiment_id, spec)
            for experiment_id in self.experiments
            for sweep in EXPERIMENTS[experiment_id].sweeps(1, self._seed(index, experiment_id))
            for spec in replace(sweep, repetitions=1).scenarios()
        ]
        if self.quick:
            specs = specs[::20]
        return [(experiment_id, partial(self._run, spec)) for experiment_id, spec in specs]

    @staticmethod
    def _run(spec: ScenarioSpec) -> int:
        outcome = run_scenario(spec)
        # E5 and E6 deliberately leave the paper's assumptions; their
        # violations are the experiments' findings, not failures.
        if _within_guarantees(spec):
            _check_safe(outcome, terminated=False)
        return outcome.messages


class SearchFanout(Workload):
    name = "search-fanout"
    why = (
        "Budget-16 scenario searches on the E6 base, candidates fanned out "
        "over 2 worker processes: mutation, a process pool per generation, "
        "queue/legacy confirmation runs."
    )
    work_unit = "executed candidate"
    #: The runner's default search base: consensus at n=4 with one crashing
    #: node under uniform-random delays, where agreement is known to break.
    base = ScenarioSpec(
        protocol="consensus",
        n=4,
        f=1,
        adversary="crash",
        delay="uniform-random",
        delay_params={"max_delay": 6},
        max_rounds=30,
    )

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        # Forked pool workers would take their spans with them, so the
        # traced run evaluates in-process.
        self.jobs = 1 if self.trace else 2
        self.budget = 9 if self.quick else 16
        self.reset_counters()

    def reset_counters(self) -> None:
        self._totals = {"evaluations": 0, "executed": 0, "findings": 0, "rejected": 0}

    def cycle(self, index: int) -> list[Op]:
        return [("search", partial(self._search, self._seed(index, k))) for k in range(4)]

    def _search(self, seed: int) -> int:
        search = ScenarioSearch(self.base, seed=seed, jobs=self.jobs, escalate_n=(8,))
        result = search.run(self.budget)
        if result.evaluations != self.budget:
            raise OpFailure(f"search evaluated {result.evaluations} of {self.budget}")
        for finding in result.findings:
            if _within_guarantees(finding.spec) or not finding.violations:
                raise OpFailure(f"unsound finding {finding.spec.canonical_json()}")
            if finding.engines != applicable_engines(finding.spec):
                raise OpFailure(f"finding not confirmed on every engine: {finding.engines}")
        self._totals["evaluations"] += result.evaluations
        self._totals["executed"] += result.executed
        self._totals["findings"] += len(result.findings)
        self._totals["rejected"] += result.rejected
        return result.executed

    def counters(self) -> dict[str, float]:
        return dict(self._totals)


class ServedSweep(Workload):
    name = "served-sweep"
    why = (
        "The HTTP scenario service: a cold traced sweep streamed to 2 "
        "subscribers, the same sweep again from the store, then a trace fetch; "
        "SQLite, trace export and NDJSON."
    )
    work_unit = "streamed trace event"
    warmup_ops = 3
    #: One client, two subscriber connections: the load stays within 2 CPUs.
    subscribers = 2

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._server: subprocess.Popen | None = None
        self._port = 0
        self._pool: ThreadPoolExecutor | None = None
        self._rss_mb = 0.0
        self._generation = 0
        self.spans_path: Path | None = None
        self._stats_lock = threading.Lock()
        self.reset_counters()

    def reset_counters(self) -> None:
        self._stats = {"first_line_s": 0.0, "streams": 0, "stream_bytes": 0}

    # -- server lifetime --------------------------------------------------------

    def start(self, *, traced: bool = False) -> None:
        self._generation += 1
        store = self.work_dir / f"runs-{self._generation}.db"
        self.spans_path = None
        if traced:
            self.spans_path = self.work_dir / f"server-{self._generation}.spans.json"
            cmd = [
                sys.executable,
                str(Path(__file__).with_name("traced_serve.py")),
                "--spans-out",
                str(self.spans_path),
            ]
        else:
            cmd = [sys.executable, "-m", "repro.store.serve"]
        cmd += ["--store", str(store), "--port", "0"]
        self._server = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        banner = self._server.stdout.readline()  # "scenario service on http://host:port (...)"
        try:
            self._port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop()
            raise BenchError(f"service did not start: {banner!r}")
        deadline = time.monotonic() + 30
        while True:
            try:
                status, _ = self._request("GET", "/health")
                if status == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise BenchError("service never became healthy")
            time.sleep(0.01)
        self._pool = ThreadPoolExecutor(max_workers=self.subscribers)

    def stop(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        server, self._server = self._server, None
        if server is None:
            return
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        server.stdout.close()

    def peak_rss_mb(self) -> float:
        """The server's peak: it is the system under test, not the client."""

        if self._server is not None:
            self._rss_mb = max(self._rss_mb, vm_hwm_mb(self._server.pid))
        return self._rss_mb

    # -- HTTP -------------------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self._port, timeout=60)

    def _request(self, method: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
        conn = self._connect()
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _follow(self, path: str, copies: int) -> list[list[dict]]:
        """Read ``copies`` concurrent NDJSON streams of ``path`` to their end."""

        futures = [self._pool.submit(self._stream, path) for _ in range(copies)]
        return [future.result() for future in futures]

    def _stream(self, path: str) -> list[dict]:
        """Read one NDJSON stream to its end; runs on a subscriber thread."""

        conn = self._connect()
        try:
            start = time.perf_counter()
            conn.request("GET", path)
            response = conn.getresponse()
            if response.status != 200:
                raise OpFailure(f"GET {path} returned {response.status}")
            events = []
            size = 0
            first_line_s = 0.0
            for line in response:
                if not events:
                    first_line_s = time.perf_counter() - start
                size += len(line)
                events.append(json.loads(line))
        finally:
            conn.close()
        with self._stats_lock:
            self._stats["first_line_s"] += first_line_s
            self._stats["streams"] += 1
            self._stats["stream_bytes"] += size
        return events

    def _sweep(self, body: dict) -> list[dict]:
        """Launch a sweep and follow it with every subscriber."""

        status, data = self._request("POST", "/sweeps", body)
        if status != 202:
            raise OpFailure(f"POST /sweeps returned {status}: {data[:200]!r}")
        views = self._follow(json.loads(data)["stream"], self.subscribers)
        if any(view != views[0] for view in views):
            raise OpFailure("subscribers saw different event streams")
        events = views[0]
        if not events or events[-1].get("event") != "sweep-complete":
            raise OpFailure(f"sweep stream did not complete: {events[-1:]}")
        return events

    # -- ops ----------------------------------------------------------------------

    def cycle(self, index: int) -> list[Op]:
        seed = self._seed(index)
        repetitions = 1 if self.quick else 2
        body = {
            "sweep": [
                {
                    "protocol": protocol,
                    "n": 24,
                    "adversary": adversary,
                    "trace": True,
                    "repetitions": repetitions,
                    "base_seed": seed,
                }
                for protocol, adversary in (
                    ("consensus", "consensus-split-vote"),
                    ("reliable-broadcast", "rb-false-echo"),
                )
            ]
        }
        state: dict = {"body": body, "cells": 2 * repetitions}
        return [
            ("cold-sweep", partial(self._cold, state)),
            ("warm-sweep", partial(self._warm, state)),
            ("trace-fetch", partial(self._fetch_trace, state)),
        ]

    def _cold(self, state: dict) -> int:
        events = self._sweep(state["body"])
        done = events[-1]
        cells = [e for e in events if e["event"] == "cell"]
        if (done["ran"], done["skipped"], len(cells)) != (state["cells"], 0, state["cells"]):
            raise OpFailure(f"cold sweep ran {done}, expected {state['cells']} fresh cells")
        for cell in cells:
            row = cell["row"]
            if not (row["decided"] and row["agreement"]):
                raise OpFailure(f"cell {cell['run_key'][:12]} did not agree: {row}")
        state["rows"] = [cell["row"] for cell in cells]
        state["run_key"] = cells[0]["run_key"]
        return 0

    def _warm(self, state: dict) -> int:
        events = self._sweep(state["body"])
        done = events[-1]
        cells = [e for e in events if e["event"] == "cell"]
        if (done["ran"], done["skipped"]) != (0, state["cells"]):
            raise OpFailure(f"warm sweep re-ran cells: {done}")
        if [cell["row"] for cell in cells] != state["rows"] or not all(
            cell["cached"] for cell in cells
        ):
            raise OpFailure("warm sweep rows differ from the cold sweep's")
        return 0

    def _fetch_trace(self, state: dict) -> int:
        (lines,) = self._follow(f"/runs/{state['run_key']}/trace?round=2", 1)
        if lines[0].get("event") != "trace-start" or lines[-1].get("event") != "trace-complete":
            raise OpFailure("trace stream is not framed by trace-start/trace-complete")
        batches = [line["events"] for line in lines if line["event"] == "segment"]
        streamed = lines[-1]["streamed"]
        if streamed != sum(map(len, batches)) or streamed == 0:
            raise OpFailure(f"trace-complete says {streamed}, batches hold {sum(map(len, batches))}")
        if any(event["round"] != 2 for batch in batches for event in batch):
            raise OpFailure("round filter returned events from other rounds")
        return streamed

    def counters(self) -> dict[str, float]:
        store_bytes = sum(
            path.stat().st_size for path in self.work_dir.glob(f"runs-{self._generation}.db*")
        )
        return {**self._stats, "store_bytes": store_bytes}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        BroadcastScale,
        ByzantineUnicast,
        TotalOrderChurn,
        SmallNBatch,
        SearchFanout,
        ServedSweep,
    )
}
