"""The property-guided scenario search: mutation validity (Hypothesis
stateful), planted-violation discovery, store persistence + bit-identical
replay, and the ``--search`` CLI entry point."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.api import ScenarioSpec
from repro.api.registry import REGISTRY
from repro.api.sweep import run_scenario
from repro.harness.runner import main as runner_main
from repro.search import harness as search_harness
from repro.search import (
    FINDING_ROW_FN,
    MUTATION_OPS,
    Finding,
    PropertyViolation,
    ScenarioSearch,
    SpecMutator,
    applicable_engines,
    evaluate_outcome,
    evaluation_row,
    replay_run,
    score_outcome,
    score_row,
)
from repro.sim.rng import make_rng
from repro.store import RunStore, record_from_outcome, row_fn_name

#: The planted E6-style regime: consensus at n=4 under uniform-random
#: delay loses agreement for a healthy fraction of seeds.
BASE = ScenarioSpec(
    protocol="consensus",
    n=4,
    f=1,
    adversary="crash",
    seed=0,
    delay="uniform-random",
    delay_params={"max_delay": 6},
    max_rounds=30,
)

#: Mutation vocabulary that keeps the search inside the uniform-random
#: delay family (no "delay" op), mirroring the CI smoke job.
PINNED_OPS = ("seed", "delay-params", "adversary", "inputs", "size")


# ---------------------------------------------------------------------------
# Mutation layer
# ---------------------------------------------------------------------------


class ConsensusMutationMachine(RuleBasedStateMachine):
    """Every mutation op, in any order, must yield a valid, buildable,
    JSON-round-trippable spec."""

    def __init__(self):
        super().__init__()
        self.mutator = SpecMutator(make_rng(0), max_n=10)
        self.spec = BASE

    @rule(op=st.sampled_from(MUTATION_OPS))
    def apply(self, op):
        self.spec = self.mutator.mutate(self.spec, op)

    @invariant()
    def json_round_trips(self):
        payload = json.loads(json.dumps(self.spec.to_dict()))
        assert ScenarioSpec.from_dict(payload) == self.spec

    @invariant()
    def registry_accepts(self):
        REGISTRY.build(self.spec)

    @invariant()
    def protocol_is_stable(self):
        assert self.spec.protocol == "consensus"


class TotalOrderMutationMachine(RuleBasedStateMachine):
    """Same contract over the churn-capable protocol (exercises the churn
    op, including flash-crowd schedules)."""

    def __init__(self):
        super().__init__()
        self.mutator = SpecMutator(make_rng(1), max_n=8)
        self.spec = ScenarioSpec(
            protocol="total-order", n=6, f=1, seed=0,
            churn={"rounds": 12, "join_rate": 0.2},
        )

    @rule(op=st.sampled_from(("seed", "churn", "adversary", "size")))
    def apply(self, op):
        self.spec = self.mutator.mutate(self.spec, op)

    @invariant()
    def json_round_trips(self):
        payload = json.loads(json.dumps(self.spec.to_dict()))
        assert ScenarioSpec.from_dict(payload) == self.spec

    @invariant()
    def registry_accepts(self):
        REGISTRY.build(self.spec)


TestConsensusMutations = ConsensusMutationMachine.TestCase
TestConsensusMutations.settings = settings(
    max_examples=15, stateful_step_count=8, deadline=None
)
TestTotalOrderMutations = TotalOrderMutationMachine.TestCase
TestTotalOrderMutations.settings = settings(
    max_examples=10, stateful_step_count=6, deadline=None
)


class TestMutatorDeterminism:
    def test_same_seed_same_trajectory(self):
        runs = []
        for _ in range(2):
            mutator = SpecMutator(make_rng(7))
            spec = BASE
            trail = []
            for _ in range(20):
                spec = mutator.mutate(spec)
                trail.append(spec.digest())
            runs.append(trail)
        assert runs[0] == runs[1]

    def test_restricted_ops_pin_the_delay_family(self):
        mutator = SpecMutator(make_rng(3), ops=PINNED_OPS)
        spec = BASE
        for _ in range(30):
            spec = mutator.mutate(spec)
            assert spec.delay == "uniform-random"

    def test_unknown_op_rejected(self):
        mutator = SpecMutator(make_rng(0))
        with pytest.raises(ValueError, match="unknown mutation op"):
            mutator.mutate(BASE, op="teleport")
        with pytest.raises(ValueError, match="unknown mutation ops"):
            SpecMutator(make_rng(0), ops=("seed", "teleport"))


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


class TestScoring:
    def test_clean_synchronous_run_has_no_violations(self):
        spec = ScenarioSpec(protocol="consensus", n=7, f=2,
                            adversary="consensus-split-vote", seed=0)
        outcome = run_scenario(spec)
        assert evaluate_outcome(outcome) == []

    def test_uniform_random_consensus_violates_agreement(self):
        # The planted break: BASE at seed 0 splits the decided values.
        outcome = run_scenario(BASE)
        names = {v.property_name for v in evaluate_outcome(outcome)}
        assert "consensus-agreement" in names

    def test_violations_dominate_the_score(self):
        outcome = run_scenario(BASE)
        assert score_outcome(outcome) > 1000
        assert score_outcome(outcome, objective="rounds") == outcome.rounds
        with pytest.raises(ValueError, match="objective"):
            score_outcome(outcome, objective="speed")

    def test_evaluation_row_scores_like_the_outcome(self):
        outcome = run_scenario(BASE)
        row = evaluation_row(outcome)
        for objective in ("violations", "rounds", "message_volume"):
            assert score_row(row, objective=objective) == score_outcome(
                outcome, objective=objective
            )
        with pytest.raises(ValueError, match="objective"):
            score_row(row, objective="speed")

    def test_message_volume_counts_messages_first(self):
        # One extra delivered message outranks a within-reason byte bump.
        light = {"messages": 101, "payload_bytes": 0, "peak_payload_bytes": 0}
        chatty = {
            "messages": 100,
            "payload_bytes": 50_000_000,
            "peak_payload_bytes": 10_000,
        }
        volume = lambda row: score_row(row, objective="message_volume")
        assert volume(light) > volume(chatty)
        # Equal counts: total bytes, then the peak payload, break the tie.
        heavier = dict(chatty, payload_bytes=50_000_001)
        assert volume(heavier) > volume(chatty)
        peakier = dict(chatty, peak_payload_bytes=20_000)
        assert volume(peakier) > volume(chatty)


# ---------------------------------------------------------------------------
# The search harness
# ---------------------------------------------------------------------------


class TestApplicableEngines:
    # The kernel option is gone: whatever the delay model, a finding is
    # confirmed once, under the single ``"auto"`` label.
    def test_synchronous_gets_all_four(self):
        spec = ScenarioSpec(protocol="consensus", n=4, f=1)
        assert applicable_engines(spec) == ("auto",)

    def test_delayed_gets_queue_and_legacy(self):
        assert applicable_engines(BASE) == ("auto",)


class TestScenarioSearch:
    def test_rediscovers_planted_uniform_random_violation(self):
        search = ScenarioSearch(
            BASE, seed=1, escalate_n=(8,), mutation_ops=PINNED_OPS,
            code_version="test",
        )
        result = search.run(150)
        found = [
            f for f in result.findings
            if f.spec.delay == "uniform-random"
            and any(v.property_name == "consensus-agreement" for v in f.violations)
        ]
        assert found, "search failed to re-find the planted E6-style break"
        finding = found[0]
        # Confirmed by a re-run, escalated to n=8.
        assert finding.engines == ("auto",)
        assert finding.escalations and finding.escalations[0]["n"] == 8

    def test_search_is_deterministic(self):
        results = [
            ScenarioSearch(
                BASE, seed=5, mutation_ops=PINNED_OPS, code_version="test"
            ).run(40)
            for _ in range(2)
        ]
        digests = [
            [f.spec_digest for f in result.findings] for result in results
        ]
        assert digests[0] == digests[1]
        assert results[0].evaluations == results[1].evaluations

    def test_findings_persist_and_replay_bit_identically(self, tmp_path):
        store = RunStore(str(tmp_path / "search.sqlite"))
        try:
            search = ScenarioSearch(
                BASE, seed=1, store=store, jobs=2, mutation_ops=PINNED_OPS,
                code_version="test",
            )
            result = search.run(60)
            assert result.findings, "need at least one finding to test replay"
            finding = result.findings[0]
            assert set(finding.run_keys) == set(finding.engines)
            (run_key,) = finding.run_keys.values()
            # The whole point: a stored counterexample reproduces
            # bit-identically from its persisted spec — including
            # counterexamples found by worker processes.
            assert replay_run(store, run_key)
            row = store.get_row(run_key, FINDING_ROW_FN)
            assert row is not None and row["violations"]
            # Findable by spec digest alone.  The candidate evaluation (the
            # search's resume cache) and the confirmation share one run
            # key, so the stored run carries both rows.
            stored = store.query(spec_digest=finding.spec_digest)
            assert [r.run_key for r in stored] == [run_key]
            assert stored[0].spec == finding.spec
            assert store.get_row(run_key, row_fn_name(evaluation_row)) is not None
        finally:
            store.close()

    def test_same_store_twice_executes_nothing_new(self, tmp_path):
        store = RunStore(str(tmp_path / "resume.sqlite"))
        try:
            kwargs = dict(
                seed=1, store=store, mutation_ops=PINNED_OPS, code_version="test"
            )
            first = ScenarioSearch(BASE, jobs=2, **kwargs).run(30)
            second = ScenarioSearch(BASE, jobs=1, **kwargs).run(30)
            assert first.executed > 0
            # Run-key dedupe observable: the repeat search is served
            # entirely from the store, at any jobs count …
            assert second.executed == 0
            assert second.cached == first.executed
            # … and returns the same findings and best candidate.
            assert [f.spec_digest for f in second.findings] == [
                f.spec_digest for f in first.findings
            ]
            assert second.best_score == first.best_score
        finally:
            store.close()

    def test_replay_run_unknown_key_raises(self, tmp_path):
        store = RunStore(str(tmp_path / "empty.sqlite"))
        try:
            with pytest.raises(KeyError):
                replay_run(store, "no-such-key")
        finally:
            store.close()

    def test_budget_is_respected(self):
        search = ScenarioSearch(BASE, seed=0, code_version="test")
        result = search.run(10)
        assert result.evaluations == 10
        with pytest.raises(ValueError, match="budget"):
            search.run(0)

    def test_bad_jobs_and_objective_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ScenarioSearch(BASE, jobs=0, code_version="test")
        with pytest.raises(ValueError, match="objective"):
            ScenarioSearch(BASE, objective="speed", code_version="test")


class TestParallelSearch:
    """The tentpole contract: fan-out changes wall-clock, never results."""

    def test_findings_bit_identical_across_jobs(self):
        results = {
            jobs: ScenarioSearch(
                BASE, seed=1, jobs=jobs, mutation_ops=PINNED_OPS,
                code_version="test",
            ).run(40).as_dict()
            for jobs in (1, 2, 4)
        }
        serial = json.dumps(results[1], sort_keys=True)
        assert json.dumps(results[2], sort_keys=True) == serial
        assert json.dumps(results[4], sort_keys=True) == serial

    def test_parallel_found_counterexample_replays(self, tmp_path):
        # A finding surfaced by a worker process must replay from the
        # parent-written store exactly like a serially-found one.
        store = RunStore(str(tmp_path / "parallel.sqlite"))
        try:
            result = ScenarioSearch(
                BASE, seed=1, store=store, jobs=4, mutation_ops=PINNED_OPS,
                code_version="test",
            ).run(40)
            assert result.findings
            for finding in result.findings:
                for run_key in finding.run_keys.values():
                    assert replay_run(store, run_key)
        finally:
            store.close()


class SerialConfirmSearch(ScenarioSearch):
    """The reference for stage 3: the parent folds each generation slot by
    slot and confirms every candidate finding itself, one at a time —
    re-run, escalations, store write — as the search did before its
    confirmations became :func:`~repro.api.sweep.map_jobs` tasks."""

    def _run_generation(self, specs, frontier, result):
        fresh = []
        for spec in specs:
            digest = spec.digest()
            if digest not in self._seen:
                self._seen.add(digest)
                fresh.append(spec)
        rows = self._evaluate_rows(fresh, result)
        result.evaluations += len(specs)
        for spec, row in zip(fresh, rows):
            score = score_row(row, objective=self.objective)
            if score > result.best_score:
                result.best_score, result.best_spec = score, spec
            frontier.append((score, spec))
            frontier.sort(key=lambda item: -item[0])
            del frontier[search_harness._FRONTIER_SIZE:]
            violations = [
                PropertyViolation(v["property"], v["detail"])
                for v in row["violations"]
            ]
            if violations:
                finding = self._confirm(spec, violations)
                if finding is None:
                    result.rejected += 1
                else:
                    result.findings.append(finding)

    def _confirm(self, spec, violations):
        outcome = run_scenario(spec, payload_accounting=True)
        reproduced = sorted(v.property_name for v in evaluate_outcome(outcome))
        if reproduced != sorted(v.property_name for v in violations):
            return None
        escalations = []
        for n in self.escalate_n:
            if n <= spec.n:
                continue
            larger = search_harness._escalated_spec(spec, n)
            larger_violations = evaluate_outcome(run_scenario(larger))
            escalations.append(
                {
                    "n": n,
                    "spec_digest": larger.digest(),
                    "reproduced": bool(larger_violations),
                    "violations": sorted(v.property_name for v in larger_violations),
                }
            )
        engines = applicable_engines(spec)
        run_keys = {}
        if self.store is not None:
            record = record_from_outcome(
                outcome, code_version=self._resolve_code_version()
            )
            row = {
                "spec_digest": spec.digest(),
                "violations": [v.as_dict() for v in violations],
                "rounds": outcome.rounds,
                "escalations": escalations,
            }
            self.store.put_run(record, row=row, row_fn=FINDING_ROW_FN)
            run_keys = dict.fromkeys(engines, record.run_key)
        return Finding(
            spec=spec,
            violations=tuple(violations),
            rounds=outcome.rounds,
            engines=engines,
            run_keys=run_keys,
            escalations=tuple(escalations),
        )


def _stored_findings(store) -> tuple[list, list]:
    """The store's finding rows, and every stored run's content."""

    runs = [
        (
            run.run_key,
            run.spec_digest,
            run.summary,
            run.rounds_executed,
            run.stop_reason,
            run.peak_payload_bytes,
            run.outputs(),
            run.decisions(),
            run.per_round(),
        )
        for run in store.query()
    ]
    return store.rows(row_fn=FINDING_ROW_FN), runs


class TestConfirmationFanOut:
    """Confirmations run as map_jobs tasks and fold back in slot order; the
    results, finding rows and stored records equal the serial reference's."""

    SEEDS = (1, 2, 3, 4, 5, 6)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
    def test_matches_the_serial_reference(self, tmp_path, jobs, with_store):
        for seed in self.SEEDS:
            outputs = []
            for label, cls, search_jobs in (
                ("reference", SerialConfirmSearch, 1),
                ("change", ScenarioSearch, jobs),
            ):
                store = (
                    RunStore(str(tmp_path / f"{label}-{seed}.sqlite"))
                    if with_store
                    else None
                )
                try:
                    result = cls(
                        BASE, seed=seed, store=store, jobs=search_jobs,
                        escalate_n=(8,), code_version="test",
                    ).run(24)
                    stored = _stored_findings(store) if with_store else None
                finally:
                    if store is not None:
                        store.close()
                outputs.append((json.dumps(result.as_dict(), sort_keys=True), stored))
            reference, change = outputs
            assert change[0] == reference[0], f"seed {seed}"
            assert change[1] == reference[1], f"seed {seed}"
        # Not vacuous: some generation confirmed more than one finding.
        assert len(json.loads(reference[0])["findings"]) > 1

    def test_confirmation_runs_are_counted(self, monkeypatch):
        # One run per executed candidate, one confirmation re-run per
        # candidate finding, and one run per escalation size of each
        # confirmed finding — none for a candidate whose violations did
        # not reproduce.  Findings with an odd seed are planted as
        # unreproduced: their confirmation re-run reports no violation.
        runs = []

        def counted(spec, **kwargs):
            runs.append(spec)
            return run_scenario(spec, **kwargs)

        def planted(outcome):
            violations = evaluate_outcome(outcome)
            return [] if outcome.spec.seed % 2 else violations

        monkeypatch.setattr(search_harness, "run_scenario", counted)
        monkeypatch.setattr(search_harness, "evaluate_outcome", planted)
        result = ScenarioSearch(
            BASE, seed=2, jobs=1, escalate_n=(8, 16), code_version="test"
        ).run(40)
        assert result.rejected > 0 and result.findings
        escalations = sum(len(f.escalations) for f in result.findings)
        assert escalations > 0
        assert len(runs) == (
            result.executed
            + len(result.findings)
            + result.rejected
            + escalations
        )
        assert all(f.spec.seed % 2 == 0 for f in result.findings)


class TestMessageVolumeSearch:
    """The traffic blowup Algorithm 6 really sends: every member answers
    each joiner's ``present`` with its own unicast ack, so churn multiplies
    the delivered messages of an otherwise quiet total-order run."""

    BASE = ScenarioSpec(
        protocol="total-order",
        n=6,
        f=0,
        adversary="silent",
        seed=0,
        max_rounds=30,
    )

    CHURNED = BASE.replace(
        churn={
            "pattern": "flash-crowd",
            "rounds": 30,
            "burst_round": 4,
            "burst_size": 3,
            "burst_byzantine_fraction": 0.0,
        },
    )

    def test_refinds_undelta_coded_membership_as_top_candidate(self):
        # Start churn-free; the only mutations available are reseeds and
        # churn schedules, so topping the volume ranking means the search
        # singled out the join/ack traffic churn brings.
        search = ScenarioSearch(
            self.BASE,
            seed=0,
            jobs=2,
            objective="message_volume",
            mutation_ops=("churn", "seed"),
            code_version="test",
        )
        result = search.run(16)
        assert result.best_spec is not None
        assert result.best_spec.churn is not None
        assert run_scenario(result.best_spec).messages > run_scenario(self.BASE).messages

    def test_wire_modes_order_the_same_events(self):
        # One membership wire is left, the paper's unicast acks: the old
        # wire switch is an unknown param, and the churned run still
        # delivers the messages and orders the chains it did with
        # ``membership_wire="unicast"`` before the delta wire was deleted.
        with pytest.raises(ValueError, match="unknown params.*membership_wire"):
            REGISTRY.build(self.CHURNED.replace(params={"membership_wire": "delta"}))
        outcome = run_scenario(self.CHURNED)
        outputs = outcome.outputs()
        assert outcome.messages == 4473
        assert {len(chain) for chain in outputs.values()} == {24}
        digest = hashlib.sha256(repr(sorted(outputs.items())).encode()).hexdigest()
        assert digest == (
            "ab141e7486a9dfb82b767bf5d4bf6b5f19e912278ddfeec76f6b70982386d803"
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestSearchCli:
    def test_search_entry_point_smoke(self, tmp_path, capsys):
        out = tmp_path / "counterexamples.json"
        store_path = tmp_path / "runs.sqlite"
        code = runner_main([
            "--search",
            "--search-budget", "80",
            "--search-ops", ",".join(PINNED_OPS),
            "--search-jobs", "2",
            "--seed", "1",
            "--store", str(store_path),
            "--search-out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "confirmed finding(s)" in captured
        payload = json.loads(out.read_text())
        assert payload["evaluations"] == 80
        uniform = [
            f for f in payload["findings"]
            if f["spec"]["delay"] == "uniform-random"
        ]
        assert uniform, "CLI search must re-find the uniform-random break"
        # Every reported counterexample is persisted and replayable.
        store = RunStore(str(store_path))
        try:
            for finding in payload["findings"]:
                for run_key in finding["run_keys"].values():
                    assert replay_run(store, run_key)
        finally:
            store.close()

    def test_search_spec_file_round_trip(self, tmp_path, capsys):
        spec_path = tmp_path / "base.json"
        spec_path.write_text(json.dumps(BASE.to_dict()))
        code = runner_main([
            "--search", "--search-budget", "5",
            "--search-spec", str(spec_path),
            "--search-escalate", "",
        ])
        assert code == 0
        assert "scenarios evaluated" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "content",
        [
            None,
            '{"protocol": ',
            "[1, 2]",
            '{"protocol": "consensus", "n": 4}',
            '{"protocol": "warp", "n": 4, "f": 1}',
        ],
        ids=["missing-file", "malformed-json", "json-array", "no-f", "unknown-protocol"],
    )
    def test_bad_search_spec_is_a_usage_error(self, tmp_path, capsys, content):
        spec_path = tmp_path / "base.json"
        if content is not None:
            spec_path.write_text(content)
        store = tmp_path / "runs.sqlite"
        with pytest.raises(SystemExit) as excinfo:
            runner_main([
                "--search", "--search-spec", str(spec_path), "--store", str(store),
            ])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        message = err.strip().splitlines()[-1]
        assert "error: --search-spec" in message
        assert not store.exists()

