"""The search loop: evaluate, mutate, confirm, persist.

See the package docstring (:mod:`repro.search`) for the full pipeline
contract.  In short: candidates are cheap small-``n`` runs; violations
only become :class:`Finding`\\ s after a confirmation re-run reproduces
them; confirmed findings are re-run at larger sizes and persisted to the
run store, replayable via :func:`replay_run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..api.spec import ScenarioSpec
from ..api.sweep import map_jobs, run_scenario
from ..sim.rng import derive, make_rng
from .mutate import SpecMutator
from .score import (
    OBJECTIVES,
    PropertyViolation,
    evaluate_outcome,
    evaluation_row,
    score_row,
)

__all__ = [
    "FINDING_ROW_FN",
    "applicable_engines",
    "Finding",
    "SearchResult",
    "ScenarioSearch",
    "replay_run",
]

#: ``row_fn`` label findings are stored under in the run store's ``rows``
#: table (one finding row per confirmed run).
FINDING_ROW_FN = "repro.search.finding"

#: Frontier size for the mutation loop: the best-scored specs kept as
#: mutation parents.
_FRONTIER_SIZE = 4

#: Candidates mutated per generation.  Fixed — independent of ``jobs`` —
#: so the rng consumes choices in the same order at any parallelism and
#: the search trajectory is a pure function of ``(base spec, seed,
#: budget)``.
_GENERATION_SIZE = 8


def applicable_engines(spec: ScenarioSpec) -> tuple[str, ...]:
    """The confirmation labels of a spec: always ``("auto",)``.

    The network has one round loop, and the delay model alone picks its
    delivery path, so every spec is confirmed once.  Kept so
    :attr:`Finding.engines` and ``Finding.run_keys`` keep their shape.
    """

    return ("auto",)


def _evaluate_candidate(spec_dict: dict) -> dict:
    """Worker entry point for the store-less parallel path.

    Runs one candidate under payload accounting and returns its
    normalised :func:`~repro.search.score.evaluation_row` — the same
    canonical-JSON shape the store-backed path yields, so scores are
    identical whichever path evaluated the candidate.
    """

    from ..store.serialize import json_normalize

    spec = ScenarioSpec.from_dict(spec_dict)
    outcome = run_scenario(spec, payload_accounting=True)
    return json_normalize(evaluation_row(outcome))


def _escalated_spec(spec: ScenarioSpec, n: int) -> ScenarioSpec:
    changes: dict = {"n": n, "f": min(spec.f, (n - 1) // 3)}
    if spec.inputs in ("split", "listed", "explicit"):
        changes["inputs"] = "default"
        changes["input_params"] = {}
    if spec.delay in ("partition", "bounded-unknown"):
        params = dict(spec.delay_params)
        params["sizes"] = [max(1, n // 2)]
        changes["delay_params"] = params
    return spec.replace(**changes)


def _confirm_candidate(payload: tuple) -> tuple | None:
    """Worker entry point for stage 3: confirm one candidate finding.

    Re-runs the candidate under the evaluation's payload accounting and,
    when that reproduces the evaluation's violation names, runs it at each
    larger size of ``escalate_n``.  Returns ``None`` for an unreproduced
    candidate, else ``(rounds, escalations, record)``: ``record`` is the
    confirmation run's :class:`~repro.store.RunRecord` under
    ``code_version`` (the record the evaluation stored under the same run
    key), or ``None`` when the search has no store.  The parent folds
    these in slot order and stays the only store writer.
    """

    spec_dict, violation_names, escalate_n, code_version = payload
    spec = ScenarioSpec.from_dict(spec_dict)
    outcome = run_scenario(spec, payload_accounting=True)
    reproduced = sorted(v.property_name for v in evaluate_outcome(outcome))
    if reproduced != violation_names:
        return None

    escalations = []
    for n in escalate_n:
        if n <= spec.n:
            continue
        larger = _escalated_spec(spec, n)
        larger_violations = evaluate_outcome(run_scenario(larger))
        escalations.append(
            {
                "n": n,
                "spec_digest": larger.digest(),
                "reproduced": bool(larger_violations),
                "violations": sorted(v.property_name for v in larger_violations),
            }
        )

    record = None
    if code_version is not None:
        from ..store import record_from_outcome

        record = record_from_outcome(outcome, code_version=code_version)
    return outcome.rounds, escalations, record


@dataclass(frozen=True)
class Finding:
    """One confirmed counterexample (or worst-case scenario)."""

    spec: ScenarioSpec
    violations: tuple[PropertyViolation, ...]
    rounds: int
    #: :func:`applicable_engines` of the spec: one ``"auto"`` entry.
    engines: tuple[str, ...]
    #: ``"auto"`` -> content-addressed run key; empty when no store was given.
    run_keys: Mapping[str, str]
    #: One entry per escalation size: the larger spec's digest and whether
    #: the violation reproduced there.
    escalations: tuple[dict, ...] = ()

    @property
    def spec_digest(self) -> str:
        return self.spec.digest()

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "spec_digest": self.spec_digest,
            "violations": [v.as_dict() for v in self.violations],
            "rounds": self.rounds,
            "engines": list(self.engines),
            "run_keys": dict(self.run_keys),
            "escalations": [dict(e) for e in self.escalations],
        }


@dataclass
class SearchResult:
    """What one :meth:`ScenarioSearch.run` produced."""

    findings: list[Finding] = field(default_factory=list)
    evaluations: int = 0
    #: Candidates whose violations did not survive the confirmation re-run.
    rejected: int = 0
    #: Of the evaluations, how many actually executed a simulation …
    executed: int = 0
    #: … and how many were served from the run store's cache — the same
    #: search against the same store executes nothing the second time.
    #: (Budget burnt on duplicate mutations counts in neither.)
    cached: int = 0
    best_score: float = float("-inf")
    best_spec: ScenarioSpec | None = None

    def as_dict(self) -> dict:
        return {
            "findings": [f.as_dict() for f in self.findings],
            "evaluations": self.evaluations,
            "rejected": self.rejected,
            "executed": self.executed,
            "cached": self.cached,
            "best_score": self.best_score,
            "best_spec": None if self.best_spec is None else self.best_spec.to_dict(),
        }


class ScenarioSearch:
    """Property-guided mutation search over scenario specs.

    Parameters
    ----------
    base_spec:
        The starting point; mutations stay within the base protocol.
    seed:
        Drives every stochastic choice of the search (parent selection and
        mutation).  ``(base_spec, seed, budget)`` fully determines the run.
    store:
        Optional :class:`repro.store.RunStore`; every candidate
        evaluation is persisted under its content-addressed run key (so
        re-running the same search resumes from cache), and confirmed
        findings add a finding row to their run (see package docstring).
    jobs:
        Worker processes for candidate evaluation and confirmation.  Each
        generation's candidates are scored across workers, then its
        candidate findings are confirmed across them, both via
        :func:`~repro.api.sweep.map_jobs` and its one warm process pool;
        the parent process folds results in slot order and stays the only
        store writer.  Findings, scores and the mutation trajectory are
        bit-identical for any ``jobs`` value.
    objective:
        ``"violations"`` (default), ``"rounds"`` or ``"message_volume"``
        — see :data:`repro.search.score.OBJECTIVES`.  Candidates always
        run under payload accounting, so byte-based objectives see real
        wire volumes.
    escalate_n:
        Larger system sizes confirmed findings are re-run at.
    max_n:
        Upper bound the size mutation respects.
    mutation_ops:
        Optional restriction of the mutation vocabulary (see
        :data:`repro.search.mutate.MUTATION_OPS`); dropping ``"delay"``
        pins the search inside the base spec's delay family.
    """

    def __init__(
        self,
        base_spec: ScenarioSpec,
        *,
        seed: int = 0,
        store: Any | None = None,
        jobs: int = 1,
        objective: str = "violations",
        escalate_n: tuple[int, ...] = (),
        max_n: int = 12,
        mutation_ops: tuple[str, ...] | None = None,
        code_version: str | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}; known: {', '.join(OBJECTIVES)}"
            )
        self.base_spec = base_spec
        self.store = store
        self.jobs = jobs
        self.objective = objective
        self.escalate_n = tuple(sorted(set(int(n) for n in escalate_n)))
        self._rng = make_rng(derive(seed, "scenario-search"))
        self.mutator = SpecMutator(self._rng, max_n=max_n, ops=mutation_ops)
        self._code_version = code_version
        self._seen: set[str] = set()

    # -- internals ----------------------------------------------------------

    def _resolve_code_version(self) -> str:
        if self._code_version is None:
            from ..store import code_fingerprint

            self._code_version = code_fingerprint()
        return self._code_version

    def _pick_parent(self, frontier: list[tuple[float, ScenarioSpec]]) -> ScenarioSpec:
        if not frontier or self._rng.random() < 0.3:
            return self.base_spec
        if self._rng.random() < 0.5:
            return frontier[0][1]
        return frontier[int(self._rng.integers(0, len(frontier)))][1]

    # -- the loop -----------------------------------------------------------

    def _evaluate_rows(self, specs: list[ScenarioSpec], result: SearchResult) -> list[dict]:
        """Measurement rows for ``specs``, fanned out over ``self.jobs``.

        With a store this is a :class:`~repro.store.ResumableSweep` batch:
        rows the store already holds (same spec, same code fingerprint)
        are served without execution, everything else runs across worker
        processes and is persisted by this (parent) process — the single
        writer.  Without a store the batch goes straight through
        :func:`~repro.api.sweep.map_jobs`.  Either way rows come back in
        ``specs`` order.
        """

        if not specs:
            return []
        if self.store is not None:
            from ..store import ResumableSweep

            sweep = ResumableSweep(
                self.store, jobs=self.jobs, code_version=self._resolve_code_version()
            )
            report = sweep.run_specs(
                specs, row_fn=evaluation_row, payload_accounting=True
            )
            result.executed += report.ran
            result.cached += report.skipped
            return report.rows
        payloads = [spec.to_dict() for spec in specs]
        rows = list(map_jobs(_evaluate_candidate, payloads, self.jobs))
        result.executed += len(rows)
        return rows

    def _run_generation(
        self,
        specs: list[ScenarioSpec],
        frontier: list[tuple[float, ScenarioSpec]],
        result: SearchResult,
    ) -> None:
        """Evaluate one generation and fold it into the search state.

        Every slot burns one unit of budget; slots whose spec was already
        seen (duplicate mutations — a saturated space must still
        terminate) burn it without executing.  The fold happens in slot
        order — (generation, mutation index) — so frontier evolution,
        best-candidate tracking and finding order never depend on which
        worker finished first.
        """

        fresh: list[ScenarioSpec] = []
        for spec in specs:
            digest = spec.digest()
            if digest not in self._seen:
                self._seen.add(digest)
                fresh.append(spec)
        rows = self._evaluate_rows(fresh, result)
        result.evaluations += len(specs)

        candidates: list[tuple[ScenarioSpec, list[PropertyViolation]]] = []
        for spec, row in zip(fresh, rows):
            score = score_row(row, objective=self.objective)
            if score > result.best_score:
                result.best_score, result.best_spec = score, spec
            frontier.append((score, spec))
            frontier.sort(key=lambda item: -item[0])
            del frontier[_FRONTIER_SIZE:]
            if row["violations"]:
                violations = [
                    PropertyViolation(v["property"], v["detail"])
                    for v in row["violations"]
                ]
                candidates.append((spec, violations))
        self._confirm_candidates(candidates, result)

    def _confirm_candidates(
        self,
        candidates: list[tuple[ScenarioSpec, list[PropertyViolation]]],
        result: SearchResult,
    ) -> None:
        """Stage 3: confirm a generation's candidate findings across ``jobs``.

        Each candidate is one :func:`_confirm_candidate` task through
        :func:`~repro.api.sweep.map_jobs`; the results fold back in slot
        order, and this (parent) process writes every finding to the store.
        """

        code_version = None if self.store is None else self._resolve_code_version()
        payloads = [
            (
                spec.to_dict(),
                sorted(v.property_name for v in violations),
                self.escalate_n,
                code_version,
            )
            for spec, violations in candidates
        ]
        confirmations = map_jobs(_confirm_candidate, payloads, self.jobs)
        for (spec, violations), confirmed in zip(candidates, confirmations):
            if confirmed is None:
                result.rejected += 1
                continue
            rounds, escalations, record = confirmed
            engines = applicable_engines(spec)
            run_keys: dict[str, str] = {}
            if record is not None:
                row = {
                    "spec_digest": spec.digest(),
                    "violations": [v.as_dict() for v in violations],
                    "rounds": rounds,
                    "escalations": escalations,
                }
                self.store.put_run(record, row=row, row_fn=FINDING_ROW_FN)
                run_keys = dict.fromkeys(engines, record.run_key)
            result.findings.append(
                Finding(
                    spec=spec,
                    violations=tuple(violations),
                    rounds=rounds,
                    engines=engines,
                    run_keys=run_keys,
                    escalations=tuple(escalations),
                )
            )

    def run(self, budget: int) -> SearchResult:
        """Evaluate up to ``budget`` candidate scenarios (confirmation and
        escalation runs are extra, bounded by the number of findings).

        The loop is generational: the base spec seeds generation zero,
        then each generation mutates :data:`_GENERATION_SIZE` candidates
        from the current frontier (sequentially, through the search's
        single rng), evaluates the batch across ``jobs`` worker processes
        and folds the measurements back in candidate order.  The
        generation's candidate findings are then confirmed (re-run and
        escalated) as one more batch across the same workers, and folded
        in the same order.  Mutation happens between generations — never
        concurrently with evaluation — so the whole trajectory, not just
        the final findings, is bit-identical for any ``jobs`` value.
        """

        if budget < 1:
            raise ValueError("budget must be at least 1")
        result = SearchResult()
        frontier: list[tuple[float, ScenarioSpec]] = []

        generation = [self.base_spec]
        while True:
            self._run_generation(generation, frontier, result)
            remaining = budget - result.evaluations
            if remaining <= 0:
                return result
            generation = []
            for _ in range(min(_GENERATION_SIZE, remaining)):
                candidate = self._pick_parent(frontier)
                for _ in range(int(self._rng.integers(1, 3))):
                    candidate = self.mutator.mutate(candidate)
                generation.append(candidate)


def replay_run(store: Any, run_key: str) -> bool:
    """Re-execute a stored run from its persisted spec; ``True`` when the
    fresh execution is bit-identical to what the store holds.

    This is the replay half of the persistence contract: a counterexample
    is only as good as its reproduction, so the check compares the correct
    nodes' outputs, the executed round count and the stop reason against
    the stored record.
    """

    stored = store.get_run(run_key)
    if stored is None:
        raise KeyError(f"run key {run_key!r} not present in the store")
    outcome = run_scenario(stored.spec)
    if stored.rounds_executed != outcome.rounds:
        return False
    if stored.stop_reason != outcome.result.stop_reason:
        return False
    return stored.outputs() == outcome.outputs()
