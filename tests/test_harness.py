"""Tests for the experiment harness (E1–E10 definitions and the runner)."""

from __future__ import annotations

import io
import json

import pytest

from repro.harness import (
    EXPERIMENTS,
    ExperimentDefinition,
    ExperimentResult,
    all_experiment_ids,
    run_experiment,
    run_many,
    write_json_report,
    write_markdown_report,
)
from repro.harness.runner import main


class TestRegistry:
    def test_all_ten_experiments_are_registered(self):
        assert all_experiment_ids() == [f"E{i}" for i in range(1, 11)]

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_experiments_are_declarative_definitions(self):
        for definition in EXPERIMENTS.values():
            assert isinstance(definition, ExperimentDefinition)
            sweeps = definition.sweeps(1, definition.default_seed)
            assert sweeps, definition.experiment_id
            assert definition.group_by and definition.metrics


class TestExperimentResult:
    def test_rendering(self):
        result = ExperimentResult(
            experiment_id="EX",
            title="demo",
            claim="claims",
            rows=[{"n": 4, "ok": True}],
            notes="a note",
        )
        text = result.to_text()
        assert "[EX] demo" in text and "claims" in text and "a note" in text
        md = result.to_markdown()
        assert md.startswith("### EX — demo")
        assert "| n | ok |" in md


class TestSmallScaleRuns:
    """Run the cheap experiments end to end at scale 1 and sanity-check the
    headline numbers (the full sweeps are exercised by the benchmarks)."""

    def test_e5_resiliency_boundary_rows_cover_both_sides(self):
        result = run_experiment("E5")
        resilient = [r for r in result.rows if r["resilient_config"]]
        broken = [r for r in result.rows if not r["resilient_config"]]
        assert resilient and broken
        # Inside the bound the agreement rate must be 1.0.
        assert all(r["agreement"] == 1.0 for r in resilient)

    def test_e6_synchrony_necessity_shape(self):
        result = run_experiment("E6")
        by_model = {r["model"]: r for r in result.rows}
        assert by_model["asynchronous"]["disagreement"] == 1.0
        assert by_model["semi-synchronous"]["disagreement"] == 1.0
        assert by_model["synchronous-control"]["agreement"] == 1.0

    def test_runner_prints_and_reports(self, tmp_path):
        stream = io.StringIO()
        results = run_many(["E6"], scale=1, stream=stream)
        assert len(results) == 1
        assert "[E6]" in stream.getvalue()
        report = tmp_path / "report.md"
        write_markdown_report(results, str(report))
        assert report.read_text().startswith("# Reproduction results")

    def test_run_many_forwards_seed(self):
        stream = io.StringIO()
        first = run_many(["E6"], seed=123, stream=stream)
        second = run_many(["E6"], seed=123, stream=stream)
        assert first[0].to_json() == second[0].to_json()
        # The forwarded seed must actually re-draw the sweep: the derived
        # per-scenario seeds differ from the default-seed run.
        definition = EXPERIMENTS["E6"]
        default_scenarios = [
            spec.seed for sweep in definition.sweeps(1, definition.default_seed)
            for spec in sweep.scenarios()
        ]
        seeded_scenarios = [
            spec.seed for sweep in definition.sweeps(1, 123)
            for spec in sweep.scenarios()
        ]
        assert default_scenarios != seeded_scenarios

    def test_e8_row_survives_every_genesis_node_leaving(self):
        # A heavy-churn seed from run_experiment("E8", scale=8) in which
        # every genesis correct node leaves: the chain-growth columns have
        # no subject and are omitted instead of crashing min()/max().
        from repro.api import ScenarioSpec
        from repro.api.sweep import run_scenario
        from repro.harness.experiments import _e8_row

        spec = ScenarioSpec(
            protocol="total-order",
            n=6,
            f=1,
            adversary="random-noise",
            seed=6257674400128222909,
            churn={"label": "heavy churn", "join_rate": 0.25,
                   "leave_rate": 0.15, "rounds": 45},
        )
        row = _e8_row(run_scenario(spec))
        assert row["churn"] == "heavy churn" and row["chain_prefix"] is True
        assert not {"chain_grew", "max_chain_length", "min_chain_length"} & set(row)

    def test_json_report_round_trips(self, tmp_path):
        results = run_many(["E6"], stream=io.StringIO())
        report = tmp_path / "results.json"
        write_json_report(results, str(report))
        payload = json.loads(report.read_text())
        assert payload[0]["experiment_id"] == "E6"
        assert payload[0]["rows"]
        assert json.loads(results[0].to_json())["rows"] == payload[0]["rows"]

    def test_cli_json_and_jobs(self, tmp_path, capsys):
        report = tmp_path / "cli.json"
        assert main(["E6", "--jobs", "2", "--json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert [entry["experiment_id"] for entry in payload] == ["E6"]
        sequential = run_experiment("E6", jobs=1)
        assert payload[0]["rows"] == json.loads(sequential.to_json())["rows"]
        capsys.readouterr()  # swallow the CLI's table output
